// The process lifecycle charhpcd and charhpc-router share: logger from
// -log-format, signal context, background warm-up, http.Server with
// the service's timeout posture, graceful shutdown, exit summary.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
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
// failure (logged and returned; a clean shutdown returns nil). warm
// runs in the background under the signal context, listening logs the
// daemon's start-up line, and summary returns the daemon's own
// key/value fields for the exit-summary line.
func RunDaemon(logger *obs.Logger, addr string, handler http.Handler,
	warm func(context.Context), listening func(), summary func() []any) error {
	// The signal context is created before the warm-up starts so a
	// SIGINT mid-warm cancels pending jobs instead of letting the
	// pool run to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	warmDone := make(chan struct{})
	go func() {
		defer close(warmDone)
		warm(ctx)
	}()

	// No WriteTimeout: a full-scale experiment or an SSE stream
	// legitimately holds a response open for minutes. Header and idle
	// timeouts are what keep slow clients from pinning goroutines and
	// fds forever.
	hs := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

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
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shctx); err != nil {
			logger.Error("shutdown", "error", err.Error())
		}
		// Wait for the warm-up to observe the cancellation: pending
		// keys are skipped, so this blocks at most for the in-flight
		// runs — not the rest of the pool — and cache writes settle
		// before exit.
		<-warmDone
		// Final summary: always one JSON line (even under -log-format
		// text) so a supervisor's log scraper gets the lifetime totals
		// without parsing the human format.
		logger.JSONLine("info", "exit summary",
			append(summary(), "uptime_seconds", int(time.Since(start).Seconds()))...)
	}
	return nil
}
