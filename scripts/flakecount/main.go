// Command flakecount reduces a `go test -json` stream to per-test run and
// failure counts: one JSONL line per (package, test), sorted, each tagged
// with the run's mode (e.g. idle or busy). A failure with no test name (a
// package that failed to build, timed out or panicked outside a test) is
// counted under the test name "(package)". Lines that are not test2json
// events are skipped.
//
// Usage:
//
//	go test -json -count=20 ./... | flakecount -mode idle >> FLAKE.jsonl
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
)

// event is the part of a test2json event the counts need.
type event struct {
	Action  string
	Package string
	Test    string
}

// count is one output line.
type count struct {
	Mode    string `json:"mode"`
	Package string `json:"package"`
	Test    string `json:"test"`
	Runs    int    `json:"runs"`
	Fails   int    `json:"fails"`
}

func main() {
	mode := flag.String("mode", "idle", "label written into every line")
	flag.Parse()
	type key struct{ pkg, test string }
	counts := make(map[key]*count)
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<26)
	for in.Scan() {
		var e event
		if json.Unmarshal(in.Bytes(), &e) != nil {
			continue
		}
		if e.Action != "pass" && e.Action != "fail" {
			continue
		}
		if e.Test == "" {
			if e.Action == "pass" {
				continue
			}
			e.Test = "(package)"
		}
		k := key{e.Package, e.Test}
		c := counts[k]
		if c == nil {
			c = &count{Mode: *mode, Package: e.Package, Test: e.Test}
			counts[k] = c
		}
		c.Runs++
		if e.Action == "fail" {
			c.Fails++
		}
	}
	if err := in.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "flakecount:", err)
		os.Exit(1)
	}
	out := make([]*count, 0, len(counts))
	for _, c := range counts {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b *count) int {
		return cmp.Or(cmp.Compare(a.Package, b.Package), cmp.Compare(a.Test, b.Test))
	})
	w := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(w)
	for _, c := range out {
		enc.Encode(c)
	}
	w.Flush()
}
