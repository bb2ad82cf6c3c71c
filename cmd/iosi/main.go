// Command iosi demonstrates the I/O Signature Identifier (§VI-B): it
// runs a periodically checkpointing application on a namespace shared
// with background noise, samples server-side throughput logs across
// several runs, and extracts the application's signature.
package main

import (
	"flag"
	"fmt"
	"os"

	"spiderfs/internal/iosi"
	"spiderfs/internal/lustre"
	"spiderfs/internal/rng"
	"spiderfs/internal/sim"
	"spiderfs/internal/topology"
	"spiderfs/internal/trace"
)

func main() {
	runs := flag.Int("runs", 4, "application runs to observe")
	period := flag.Float64("period", 3, "checkpoint period (simulated seconds)")
	burstMB := flag.Int64("burst", 96, "checkpoint size in MiB")
	bursts := flag.Int("bursts", 6, "checkpoints per run")
	noise := flag.Float64("noise", 0.2, "background noise intensity 0..1")
	seed := flag.Uint64("seed", 42, "random seed")
	importPath := flag.String("import", "", "read server logs from a JSON trace file instead of simulating")
	exportPath := flag.String("export", "", "write the collected server logs to a JSON trace file")
	flag.Parse()

	var series []iosi.Series
	if *importPath != "" {
		f, err := os.Open(*importPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iosi:", err)
			os.Exit(1)
		}
		logs, err := trace.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "iosi:", err)
			os.Exit(1)
		}
		for _, l := range logs {
			series = append(series, l.Series())
		}
	} else {
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
		if err != nil {
			fmt.Fprintln(os.Stderr, "iosi:", err)
			os.Exit(1)
		}
		if err := trace.Write(f, logs); err != nil {
			fmt.Fprintln(os.Stderr, "iosi:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("exported %d server logs to %s\n", len(logs), *exportPath)
	}
	for i, s := range series {
		sig := iosi.ExtractRun(s, 4)
		fmt.Printf("run %d: %d bursts, period %v, burst volume %.1f MiB\n",
			i, sig.BurstsPerRun, sig.Period, sig.BurstVolume/(1<<20))
	}
	sig := iosi.Extract(series, 4)
	fmt.Printf("\nsignature across %d runs:\n", len(series))
	fmt.Printf("  period:       %v\n", sig.Period)
	fmt.Printf("  burst volume: %.1f MiB\n", sig.BurstVolume/(1<<20))
	fmt.Printf("  burst length: %v\n", sig.BurstDuration)
	fmt.Printf("  bursts/run:   %d\n", sig.BurstsPerRun)
	fmt.Printf("  confidence:   %.2f\n", sig.Confidence)
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

	sampler := iosi.NewSampler(fs, 100*sim.Millisecond)
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
