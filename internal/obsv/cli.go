package obsv

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"time"
)

// signalAction classifies what a received process signal asks of the
// observability plane (the platform mapping lives in signals_unix.go /
// signals_other.go).
type signalAction int

const (
	sigIgnore signalAction = iota
	// sigFlushExit flushes every sink, then exits (SIGINT/SIGTERM).
	sigFlushExit
	// sigBundleExit writes a diagnostic bundle, flushes, exits (SIGQUIT).
	sigBundleExit
	// sigBundleContinue writes a bundle and keeps running (SIGUSR1).
	sigBundleContinue
)

// CLI bundles the observability command-line flags shared by the cure
// commands (curectl, cubebench, apbgen): metrics/trace sinks, pprof
// profiles, a periodic progress reporter, the sampling history, the
// flight recorder, and the live telemetry server.
type CLI struct {
	MetricsOut    string
	TraceOut      string
	TraceMaxBytes int64
	CPUProfile    string
	MemProfile    string
	Progress      bool
	ServeAddr     string
	ServeHold     time.Duration
	SlowQueryMs   int64
	SlowQueryOut  string
	FlightDir     string

	reg          *Registry
	closeTrace   func() error
	closeSlow    func() error
	stopCPU      func()
	stopProgress func()
	server       *Server
	queries      *QueryTracker
	history      *History
	flight       *FlightRecorder
	flushOnce    sync.Once
	flushErr     error
	stopSignals  func()
}

// RegisterFlags registers the standard observability flags on fs and
// returns the CLI that will honor them.
func RegisterFlags(fs *flag.FlagSet) *CLI {
	c := &CLI{}
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write metrics snapshot JSON to file ('-' = stdout)")
	fs.StringVar(&c.TraceOut, "trace-out", "", "write JSONL plan-traversal trace to file ('-' = stdout)")
	fs.Int64Var(&c.TraceMaxBytes, "trace-max-bytes", 0, "cap -trace-out at this many bytes, dropping further events (0 = unlimited)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write CPU profile to file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write heap profile to file")
	fs.BoolVar(&c.Progress, "progress", false, "report build progress to stderr every 2s")
	fs.StringVar(&c.ServeAddr, "serve", "", "serve live telemetry on this address (/metrics, /metrics/history, /healthz, /progress, /queries, /debug/pprof)")
	fs.DurationVar(&c.ServeHold, "serve-hold", 0, "keep the -serve telemetry server up this long after the work finishes")
	fs.Int64Var(&c.SlowQueryMs, "slow-query-ms", -1, "log queries at least this slow as JSONL (0 = log every query, -1 = off)")
	fs.StringVar(&c.SlowQueryOut, "slow-query-out", "", "slow-query JSONL sink ('-' = stdout, default stderr)")
	fs.StringVar(&c.FlightDir, "flight-dir", "", "enable the flight recorder: write diagnostic bundles into this directory on panic, SIGQUIT/SIGUSR1, mem-budget crossing, or /debug/bundle")
	return c
}

// Registry returns the registry the flags call for: a live one when any
// metrics, trace, progress, serve, slow-query, or flight flag was
// given, nil (zero-overhead) otherwise.
func (c *CLI) Registry() *Registry {
	if c.reg == nil && (c.MetricsOut != "" || c.TraceOut != "" || c.Progress || c.ServeAddr != "" || c.SlowQueryMs >= 0 || c.FlightDir != "") {
		c.reg = NewRegistry()
	}
	return c.reg
}

// Queries returns the query tracker the flags call for: live when a
// registry is live (so /queries, the slow-query log, and the
// query.inflight gauge all work), nil otherwise. Pass it to
// query.Options.Queries.
func (c *CLI) Queries() *QueryTracker {
	if c.queries == nil && c.Registry() != nil {
		c.queries = NewQueryTracker(c.reg, 0)
	}
	return c.queries
}

// Start opens the trace sink, begins CPU profiling, launches the
// progress reporter (writing to progressW), starts the history, and
// brings up the telemetry server as requested by the flags. The server
// (and history) come up before the instrumented work begins, so /healthz
// answers for the whole run. Call Finish when the work is done.
func (c *CLI) Start(progressW io.Writer) error {
	if c.TraceOut != "" {
		tw, closeFn, err := OpenTraceFile(c.TraceOut)
		if err != nil {
			return err
		}
		if c.TraceMaxBytes > 0 {
			tw.SetMaxBytes(c.TraceMaxBytes)
			tw.SetDropCounter(c.Registry().Counter("trace.dropped"))
		}
		c.Registry().SetTrace(tw)
		c.closeTrace = closeFn
	}
	if c.SlowQueryMs >= 0 {
		var sw *TraceWriter
		if c.SlowQueryOut == "" {
			sw = NewTraceWriter(os.Stderr)
			c.closeSlow = sw.Flush
		} else {
			var closeFn func() error
			var err error
			sw, closeFn, err = OpenTraceFile(c.SlowQueryOut)
			if err != nil {
				return err
			}
			c.closeSlow = closeFn
		}
		c.Queries().SetSlowLog(sw, time.Duration(c.SlowQueryMs)*time.Millisecond)
	}
	if c.CPUProfile != "" {
		stop, err := StartCPUProfile(c.CPUProfile)
		if err != nil {
			return err
		}
		c.stopCPU = stop
	}
	if c.Progress {
		c.stopProgress = StartProgress(c.Registry(), progressW, 2*time.Second)
	}
	if c.FlightDir != "" {
		c.flight = NewFlightRecorder(c.FlightDir, c.Registry())
		c.Registry().SetFlight(c.flight)
		// Bundles want the trace leading up to the incident. Retain a
		// tail ring on the configured sink, or on a discard-backed one
		// when no -trace-out was asked for.
		tw := c.Registry().Trace()
		if tw == nil {
			tw = NewTraceWriter(io.Discard)
			c.Registry().SetTrace(tw)
		}
		tw.SetTailCap(512)
	}
	if c.FlightDir != "" || c.ServeAddr != "" {
		c.history = StartHistory(c.Registry())
	}
	c.flight.Attach(c.history, c.Queries())
	if c.ServeAddr != "" {
		srv, err := StartServer(c.ServeAddr, c.Registry(), ServerOptions{
			Queries: c.Queries(),
			History: c.history,
			Flight:  c.flight,
		})
		if err != nil {
			return err
		}
		c.server = srv
		fmt.Fprintf(progressW, "telemetry: serving http://%s/{metrics,metrics/history,healthz,progress,queries,debug/pprof}\n", srv.Addr())
	}
	if c.Registry() != nil {
		c.installSignals(progressW)
	}
	return nil
}

// flushSinks stops the history (it takes a final point), writes the
// -metrics-out snapshot, and closes the trace and slow-query sinks —
// exactly once, shared by Finish and the signal handler so an
// interrupted -serve-hold session loses no buffered tail records.
func (c *CLI) flushSinks() error {
	c.flushOnce.Do(func() {
		c.history.Stop()
		if c.MetricsOut != "" {
			if err := WriteMetricsFile(c.reg, c.MetricsOut); err != nil && c.flushErr == nil {
				c.flushErr = err
			}
		}
		if c.closeTrace != nil {
			if err := c.closeTrace(); err != nil && c.flushErr == nil {
				c.flushErr = err
			}
		}
		if c.closeSlow != nil {
			if err := c.closeSlow(); err != nil && c.flushErr == nil {
				c.flushErr = err
			}
		}
	})
	return c.flushErr
}

// installSignals routes process signals into the observability plane:
// SIGINT/SIGTERM flush every sink before exiting (codes 130/143),
// SIGQUIT writes a diagnostic bundle then flushes and exits (code 2),
// SIGUSR1 writes a bundle and keeps running. Platforms without these
// signals degrade to interrupt-flush only (see signals_other.go).
func (c *CLI) installSignals(progressW io.Writer) {
	ch := make(chan os.Signal, 4)
	signal.Notify(ch, notifySignals()...)
	// Stop guarantees no further sends, so closing ch is safe and ends
	// the handler goroutine.
	c.stopSignals = func() {
		signal.Stop(ch)
		close(ch)
	}
	go func() {
		for sig := range ch {
			action, code := classifySignal(sig)
			switch action {
			case sigBundleContinue:
				if dir := c.flight.Trigger("sigusr1", "signal-triggered bundle"); dir != "" {
					fmt.Fprintf(progressW, "flight: bundle written to %s\n", dir)
				}
			case sigBundleExit:
				if dir := c.flight.Trigger("sigquit", "signal-triggered bundle"); dir != "" {
					fmt.Fprintf(progressW, "flight: bundle written to %s\n", dir)
				}
				c.flushSinks()
				os.Exit(code)
			case sigFlushExit:
				c.flushSinks()
				os.Exit(code)
			}
		}
	}()
}

// Finish stops the progress reporter and CPU profiler, holds then closes
// the telemetry server, stops the history, writes the heap profile and
// metrics snapshot, flushes the trace, and releases the signal handler.
// Safe to call once after Start (even a failed one).
func (c *CLI) Finish() error {
	if c.stopProgress != nil {
		c.stopProgress()
	}
	if c.stopCPU != nil {
		c.stopCPU()
	}
	if c.server != nil && c.ServeHold > 0 {
		time.Sleep(c.ServeHold)
	}
	var firstErr error
	if c.server != nil {
		if err := c.server.Close(); err != nil {
			firstErr = err
		}
	}
	if c.MemProfile != "" {
		if err := WriteHeapProfile(c.MemProfile); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// The history stops inside flushSinks, after the server is down:
	// scrapes stay consistent to the end, and the final tick still lands
	// in the metrics file and trace.
	if err := c.flushSinks(); err != nil && firstErr == nil {
		firstErr = err
	}
	if c.stopSignals != nil {
		c.stopSignals()
	}
	return firstErr
}
