package serve

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestShutdownClosesUnusedConn: a connection a client dialled and never
// used does not hold up shutdown, which net/http alone waits 5 s on,
// while a request in flight is still answered before shutdown returns.
func TestShutdownClosesUnusedConn(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	s := newDaemonServer("", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)

	unused, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer unused.Close()
	for end := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		n := len(s.fresh)
		s.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(end) {
			t.Fatal("server never saw the unused connection")
		}
	}

	body := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String())
		if err != nil {
			body <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		body <- string(b)
	}()
	<-entered

	t0 := time.Now()
	done := make(chan error, 1)
	go func() { done <- s.shutdown(5 * time.Second) }()
	select {
	case err := <-done:
		t.Fatalf("shutdown returned (%v) with a request in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Errorf("shutdown took %v with an unused connection open, want < 1s", d)
	}
	if got := <-body; got != "done" {
		t.Errorf("in-flight request got %q, want its response", got)
	}
	unused.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := unused.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("unused connection read: %v, want io.EOF (closed by the server)", err)
	}
}
