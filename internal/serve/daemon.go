// The process lifecycle charhpcd and charhpc-router share: logger from
// -log-format, signal context, http.Server with the service's timeout
// posture, graceful shutdown, exit summary.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// DaemonLogger builds the stderr logger a -log-format value selects;
// anything but text or json is an error.
func DaemonLogger(format string) (*obs.Logger, error) {
	if format != obs.FormatText && format != obs.FormatJSON {
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
	return obs.NewLogger(os.Stderr, format), nil
}

// RunDaemon serves handler on addr until SIGINT/SIGTERM or a listen
// failure (logged and returned; a clean shutdown returns nil).
// listening logs the daemon's start-up line, and summary returns the
// daemon's own key/value fields for the exit-summary line.
func RunDaemon(logger *obs.Logger, addr string, handler http.Handler,
	listening func(), summary func() []any) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs := newDaemonServer(addr, handler)
	start := time.Now()
	errc := make(chan error, 1)
	go func() {
		listening()
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "error", err.Error())
			return err
		}
	case <-ctx.Done():
		// Restore default signal disposition right away: a second
		// SIGINT force-kills instead of being swallowed while the
		// graceful path waits out in-flight work.
		stop()
		logger.Info("shutting down")
		if err := hs.shutdown(5 * time.Second); err != nil {
			logger.Error("shutdown", "error", err.Error())
		}
		// Final summary: always one JSON line (even under -log-format
		// text) so a supervisor's log scraper gets the lifetime totals
		// without parsing the human format.
		logger.JSONLine("info", "exit summary",
			append(summary(), "uptime_seconds", int(time.Since(start).Seconds()))...)
	}
	return nil
}

// daemonServer is the http.Server both daemons run, with the
// connections that have not yet carried a request tracked so shutdown
// need not wait them out.
type daemonServer struct {
	*http.Server

	mu      sync.Mutex
	fresh   map[net.Conn]bool // connections in http.StateNew
	closing bool              // shutdown began: close fresh ones on sight
}

func newDaemonServer(addr string, handler http.Handler) *daemonServer {
	s := &daemonServer{fresh: map[net.Conn]bool{}}
	// No WriteTimeout: a full-scale experiment or an SSE stream
	// legitimately holds a response open for minutes. Header and idle
	// timeouts are what keep slow clients from pinning goroutines and
	// fds forever.
	s.Server = &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		ConnState:         s.track,
	}
	return s
}

// track records whether c has yet to carry a request, closing it at
// once if shutdown has begun.
func (s *daemonServer) track(c net.Conn, state http.ConnState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case state != http.StateNew:
		delete(s.fresh, c)
	case s.closing:
		c.Close()
	default:
		s.fresh[c] = true
	}
}

// shutdown stops the server gracefully within grace. Shutdown closes
// idle connections and waits for active requests, but it treats a
// connection that never carried a request as busy for its first 5 s —
// and a client's transport can dial one it then leaves unused. Those
// hold no request, so they are closed at once.
func (s *daemonServer) shutdown(grace time.Duration) error {
	s.mu.Lock()
	s.closing = true
	for c := range s.fresh {
		c.Close()
	}
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	return s.Shutdown(ctx)
}
