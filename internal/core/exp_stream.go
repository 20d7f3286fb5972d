package core

import (
	"io"
	"runtime"

	"repro/internal/report"
	"repro/internal/stream"
)

func init() {
	register(Experiment{ID: "F7", Kind: "figure", Run: runF7,
		Title: "STREAM Triad bandwidth vs thread count (measured + model)"})
	register(Experiment{ID: "T2", Kind: "table", Run: runT2, NoPlatform: true,
		Title: "STREAM Copy/Scale/Add/Triad bandwidth table"})
}

func streamN(s Scale) int {
	if s == Full {
		return 8 << 20 // 64 MiB per array: beats any LLC
	}
	return 1 << 18
}

func runF7(w io.Writer, r Request) error {
	ms, err := platformsFor(r, "smp-1n")
	if err != nil {
		return err
	}
	fig := report.NewFigure("STREAM Triad bandwidth vs threads", "threads", "MB/s")
	maxT := runtime.GOMAXPROCS(0)
	threads := []int{1}
	for t := 2; t <= maxT; t *= 2 {
		threads = append(threads, t)
	}
	ntimes := 5
	if r.Scale == Full {
		ntimes = 10
	}

	for _, ft := range []bool{true, false} {
		name := "measured/first-touch"
		if !ft {
			name = "measured/serial-init"
		}
		series := fig.AddSeries(name)
		for _, t := range threads {
			res, err := stream.Run(stream.Config{
				N: streamN(r.Scale), NTimes: ntimes, Threads: t, FirstTouch: ft,
			})
			if err != nil {
				return err
			}
			series.Add(float64(t), res[3].MBps()) // Triad
		}
	}

	// Model curve from the platform's node parameters.
	for _, m := range ms {
		series := fig.AddSeries("model/" + m.Name)
		for _, t := range threads {
			bw := stream.ModelTriadRate(t, m.Topo.CoresPerSocket, m.MemBWPerCore, m.MemBWPerSocket)
			series.Add(float64(t), bw/1e6)
		}
	}
	return fig.Fprint(w)
}

func runT2(w io.Writer, r Request) error {
	res, err := stream.Run(stream.Config{
		N: streamN(r.Scale), NTimes: 10, FirstTouch: true,
	})
	if err != nil {
		return err
	}
	t := report.NewTable("STREAM results (best rate)",
		"kernel", "MB/s", "avg time (s)", "min time (s)", "max time (s)")
	for _, r := range res {
		t.AddRow(r.Kernel.String(), r.MBps(), r.AvgTime, r.MinTime, r.MaxTime)
	}
	return t.Fprint(w)
}
