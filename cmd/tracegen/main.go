// Command tracegen writes a synthetic benchmark trace to a file in the
// compact (varint-delta v2) trace format, for inspection or replay through
// campsim -trace.
//
// Usage:
//
//	tracegen -bench mcf -n 1000000 -o mcf.trace [-seed 7] [-base 0]
//	tracegen -list
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"camps/internal/cliutil"
	"camps/internal/trace"
	"camps/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")

	var (
		bench   = flag.String("bench", "", "benchmark name (see -list)")
		n       = flag.Int64("n", 1_000_000, "number of records")
		out     = flag.String("o", "", "output file (default <bench>.trace)")
		seed    = flag.Uint64("seed", 1, "generator seed")
		base    = flag.Uint64("base", 0, "base physical address")
		list    = flag.Bool("list", false, "list available benchmarks and exit")
		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		cliutil.PrintVersion(os.Stdout, "tracegen")
		return
	}
	if *list {
		names := append(workload.Names(), workload.ExtensionNames()...)
		for _, name := range names {
			b, _ := workload.GetAny(name)
			fmt.Printf("%-9s %s  footprint %4d MiB  streams %d  conflict-group %d@%.0f%%\n",
				name, b.Class, b.Profile.FootprintBytes>>20, b.Profile.Streams,
				b.Profile.ConflictStreams, b.Profile.ConflictProb*100)
		}
		return
	}
	if *bench == "" {
		log.Fatal("need -bench (or -list)")
	}
	b, err := workload.GetAny(*bench)
	if err != nil {
		log.Fatalf("benchmark %q: %v", *bench, err)
	}
	gen, err := trace.NewGenerator(b.Profile, *base, *seed)
	if err != nil {
		log.Fatalf("benchmark %q profile: %v", *bench, err)
	}

	path := *out
	if path == "" {
		path = *bench + ".trace"
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("create %s: %v", path, err)
	}
	// A partial trace is worse than none: later replays would see silent
	// truncation. Any failure below removes the torn output before exiting
	// non-zero.
	fail := func(format string, args ...any) {
		f.Close()
		os.Remove(path)
		log.Fatalf(format, args...)
	}
	w := trace.NewCompactWriter(f)
	for i := int64(0); i < *n; i++ {
		rec, err := gen.Next()
		if err != nil {
			fail("generate %s record %d: %v", *bench, i, err)
		}
		if err := w.Write(rec); err != nil {
			fail("write %s record %d: %v", path, i, err)
		}
	}
	if err := w.Flush(); err != nil {
		fail("flush %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		fail("close %s: %v", path, err)
	}
	fmt.Printf("wrote %d records (%s) to %s\n", w.Count(), *bench, path)
}
