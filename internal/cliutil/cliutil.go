// Package cliutil keeps the study CLIs' shared flags consistent. Their one
// parallelism knob is -j N: how many experiments or profiling units run
// concurrently, each on its own private engine. Output order is fixed, so
// results are byte-identical at any -j; the knob only trades host
// wall-clock time. Invalid values exit with status 2, the CLIs' usage-error
// convention.
package cliutil

import (
	"fmt"
	"os"
)

// CheckJobs validates a -j value. Exits 2 when it is not positive.
func CheckJobs(n int) {
	if n < 1 {
		fmt.Fprintf(os.Stderr, "-j %d out of range: need at least 1 worker\n", n)
		os.Exit(2)
	}
}
