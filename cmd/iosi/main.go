// Command iosi demonstrates the I/O Signature Identifier (§VI-B): it
// runs a periodically checkpointing application on a namespace shared
// with background noise, samples server-side throughput logs across
// several runs, and extracts the application's signature.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"spiderfs/internal/iosi"
	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
	"spiderfs/internal/trace"
)

// Bounds on a simulated run: its window, -period x (-bursts + 1), is at
// most one simulated hour (sim.FromSeconds saturates a huge value at
// sim.MaxTime, a run that would never finish), and its checkpoints,
// -bursts x -burst, at most maxRunMB MiB, the test namespace's 64 GiB.
const (
	maxWindow = sim.Hour
	maxRunMB  = 64 << 10
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("iosi", flag.ContinueOnError)
	flags.SetOutput(stderr)
	runs := flags.Int("runs", 4, "application runs to observe")
	period := flags.Float64("period", 3, "checkpoint period (simulated seconds)")
	burstMB := flags.Int64("burst", 96, "checkpoint size in MiB")
	bursts := flags.Int("bursts", 6, "checkpoints per run")
	noise := flags.Float64("noise", 0.2, "background noise intensity 0..1")
	seed := flags.Uint64("seed", 42, "random seed")
	importPath := flags.String("import", "", "read server logs from a JSON trace file instead of simulating")
	exportPath := flags.String("export", "", "write the collected server logs to a JSON trace file")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var series []iosi.Series
	if *importPath != "" {
		f, err := os.Open(*importPath)
		if err != nil {
			fmt.Fprintln(stderr, "iosi:", err)
			return 1
		}
		logs, err := trace.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(stderr, "iosi:", err)
			return 1
		}
		for _, l := range logs {
			series = append(series, l.Series())
		}
	} else {
		switch {
		case *runs < 1:
			return fail(stderr, "-runs must be at least 1")
		case *burstMB < 1 || *bursts < 1 || int64(*bursts) > maxRunMB / *burstMB:
			return fail(stderr, "-burst and -bursts must be at least 1, with -bursts x -burst at most %d MiB", maxRunMB)
		case sim.FromSeconds(*period) <= 0:
			return fail(stderr, "-period must be positive")
		case sim.FromSeconds(*period*float64(*bursts+1)) > maxWindow:
			return fail(stderr, "-period x (-bursts + 1) must be at most %g seconds", maxWindow.Seconds())
		case !(*noise >= 0 && *noise <= 1):
			return fail(stderr, "-noise must be in [0, 1]")
		}
		for r := 0; r < *runs; r++ {
			series = append(series, oneRun(uint64(r)+*seed, *period, *burstMB<<20, *bursts, *noise))
		}
	}
	if *exportPath != "" {
		logs := make([]trace.Log, len(series))
		for i, s := range series {
			logs[i] = trace.FromSeries(fmt.Sprintf("run-%d", i), s)
		}
		f, err := os.Create(*exportPath)
		if err == nil {
			err = trace.Write(f, logs)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "iosi:", err)
			return 1
		}
		fmt.Fprintf(stdout, "exported %d server logs to %s\n", len(logs), *exportPath)
	}
	for i, s := range series {
		sig := iosi.ExtractRun(s, 4)
		fmt.Fprintf(stdout, "run %d: %d bursts, period %v, burst volume %.1f MiB\n",
			i, sig.BurstsPerRun, sig.Period, sig.BurstVolume/(1<<20))
	}
	sig := iosi.Extract(series, 4)
	fmt.Fprintf(stdout, "\nsignature across %d runs:\n", len(series))
	fmt.Fprintf(stdout, "  period:       %v\n", sig.Period)
	fmt.Fprintf(stdout, "  burst volume: %.1f MiB\n", sig.BurstVolume/(1<<20))
	fmt.Fprintf(stdout, "  burst length: %v\n", sig.BurstDuration)
	fmt.Fprintf(stdout, "  bursts/run:   %d\n", sig.BurstsPerRun)
	fmt.Fprintf(stdout, "  confidence:   %.2f\n", sig.Confidence)
	return 0
}

// fail reports a flag the simulation cannot honour and returns its exit
// code, 2.
func fail(stderr io.Writer, format string, args ...any) int {
	fmt.Fprintf(stderr, "iosi: "+format+"\n", args...)
	return 2
}

func oneRun(seed uint64, periodSec float64, burstBytes int64, bursts int, noise float64) iosi.Series {
	eng := sim.NewEngine()
	fs := lustre.Build(eng, lustre.TestNamespace(), rng.New(seed))
	src := rng.New(seed)
	app := lustre.NewClient(0, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})
	bg := lustre.NewClient(1, topology.Coord{}, fs, lustre.NullTransport{Eng: eng})

	var appFile, bgFile *lustre.File
	fs.Create("app/ckpt", 4, func(f *lustre.File) { appFile = f })
	fs.Create("other/data", 1, func(f *lustre.File) { bgFile = f })
	eng.Run()

	sampler := iosi.NewSampler(fs)
	endAt := sim.FromSeconds(periodSec * float64(bursts+1))

	// Background noise: intermittent writes from another job.
	var nextNoise func()
	nextNoise = func() {
		if eng.Now() >= endAt {
			return
		}
		gap := sim.FromSeconds(src.Exp(2))
		eng.After(gap, func() {
			if eng.Now() >= endAt {
				return
			}
			size := int64(noise * float64(src.Intn(32)+1) * (1 << 20))
			if size > 0 {
				bg.WriteStream(bgFile, size, 1<<20, nil)
			}
			nextNoise()
		})
	}
	nextNoise()

	period := sim.FromSeconds(periodSec)
	var burst func(n int)
	burst = func(n int) {
		if n == 0 {
			return
		}
		app.WriteStream(appFile, burstBytes, 1<<20, func(int64) {
			eng.After(period, func() { burst(n - 1) })
		})
	}
	burst(bursts)
	eng.RunUntil(endAt)
	s := sampler.Stop()
	eng.Run()
	return s
}
