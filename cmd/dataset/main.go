// Command dataset inspects and manipulates serialized hitlist datasets
// (the delta-varint binary format of internal/hitlist).
//
// Subcommands:
//
//	dataset stats  FILE           print size, /48 count, entropy summary
//	dataset diff   A B            compare two datasets (sizes, overlap)
//	dataset merge  OUT A B [C..]  union several datasets into OUT
//	dataset release FILE          print the /48-truncated release form
//	dataset export  FILE          print one address per line
//
//lint:durable-path merge writes dataset files users depend on
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"hitlist6/internal/addr"
	"hitlist6/internal/hitlist"
	"hitlist6/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// commands maps each subcommand to its argument-count bounds (max < 0:
// unbounded) and its body.
var commands = map[string]struct {
	min, max int
	run      func(args []string, stdout io.Writer) error
}{
	"stats":   {1, 1, cmdStats},
	"diff":    {2, 2, cmdDiff},
	"merge":   {3, -1, cmdMerge},
	"release": {1, 1, cmdRelease},
	"export":  {1, 1, cmdExport},
}

// run is the whole command: a subcommand missing from the table or
// given the wrong number of arguments exits 2, a failing one 1.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	cmd, ok := commands[args[0]]
	if n := len(args) - 1; !ok || n < cmd.min || (cmd.max >= 0 && n > cmd.max) {
		return usage(stderr)
	}
	if err := cmd.run(args[1:], stdout); err != nil {
		fmt.Fprintln(stderr, "dataset:", err)
		return 1
	}
	return 0
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: dataset stats FILE | diff A B | merge OUT A B [C..] | release FILE | export FILE")
	return 2
}

func load(path string) (*hitlist.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return hitlist.ReadDataset(f)
}

func cmdStats(args []string, stdout io.Writer) error {
	d, err := load(args[0])
	if err != nil {
		return err
	}
	p48s := make(map[addr.Prefix48]struct{})
	var entropies []float64
	euis := 0
	d.Each(func(a addr.Addr) bool {
		p48s[a.P48()] = struct{}{}
		entropies = append(entropies, a.IID().NormalizedEntropy())
		if a.IID().IsEUI64() {
			euis++
		}
		return true
	})
	dist := stats.NewDistribution(entropies)
	fmt.Fprintf(stdout, "name:            %s\n", d.Name)
	fmt.Fprintf(stdout, "addresses:       %s\n", stats.Comma(int64(d.Len())))
	fmt.Fprintf(stdout, "distinct /48s:   %s\n", stats.Comma(int64(len(p48s))))
	if len(p48s) > 0 {
		fmt.Fprintf(stdout, "addrs per /48:   %.1f\n", float64(d.Len())/float64(len(p48s)))
	}
	fmt.Fprintf(stdout, "median entropy:  %.3f\n", dist.Median())
	fmt.Fprintf(stdout, "EUI-64 share:    %s\n", stats.Pct(float64(euis)/float64(max(1, d.Len())), 2))
	return nil
}

func cmdDiff(args []string, stdout io.Writer) error {
	a, err := load(args[0])
	if err != nil {
		return err
	}
	b, err := load(args[1])
	if err != nil {
		return err
	}
	common := hitlist.IntersectionSize(a, b)
	fmt.Fprintf(stdout, "%s: %s addresses\n", a.Name, stats.Comma(int64(a.Len())))
	fmt.Fprintf(stdout, "%s: %s addresses\n", b.Name, stats.Comma(int64(b.Len())))
	fmt.Fprintf(stdout, "common: %s (%s of A, %s of B)\n",
		stats.Comma(int64(common)),
		stats.Pct(float64(common)/float64(max(1, a.Len())), 2),
		stats.Pct(float64(common)/float64(max(1, b.Len())), 2))
	fmt.Fprintf(stdout, "only in A: %s\n", stats.Comma(int64(a.Len()-common)))
	fmt.Fprintf(stdout, "only in B: %s\n", stats.Comma(int64(b.Len()-common)))
	return nil
}

func cmdMerge(args []string, stdout io.Writer) error {
	out := hitlist.NewDataset("merged")
	for _, path := range args[1:] {
		d, err := load(path)
		if err != nil {
			return err
		}
		d.Each(func(a addr.Addr) bool {
			out.Add(a)
			return true
		})
	}
	f, err := os.Create(args[0])
	if err != nil {
		return err
	}
	if _, err := out.WriteTo(f); err != nil {
		//lint:durable best-effort cleanup; the write error being returned is the root cause
		f.Close()
		return err
	}
	// Close flushes; a dropped error here could report a truncated file
	// as written.
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s addresses to %s\n", stats.Comma(int64(out.Len())), args[0])
	return nil
}

func cmdRelease(args []string, stdout io.Writer) error {
	d, err := load(args[0])
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, hitlist.Release(d))
	return nil
}

// cmdExport writes through one buffer, so a large dataset costs a
// write per buffer-full rather than one per address, and the first
// write error (a closed pipe, a full disk) fails the command.
func cmdExport(args []string, stdout io.Writer) error {
	d, err := load(args[0])
	if err != nil {
		return err
	}
	w := bufio.NewWriter(stdout)
	for _, a := range d.Addrs() {
		if _, err := fmt.Fprintln(w, a); err != nil {
			return err
		}
	}
	return w.Flush()
}
