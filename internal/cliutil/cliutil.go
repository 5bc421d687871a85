// Package cliutil holds the boilerplate the study CLIs share. Their one
// parallelism knob is -j N: how many experiments or profiling units run
// concurrently, each on its own private engine. Output order is fixed, so
// results are byte-identical at any -j; the knob only trades host
// wall-clock time. Invalid values — a -j below 1, a -platform, -op or
// -workload that names no choice — exit with status 2, the CLIs'
// usage-error convention. Model violations panic by design; Recover turns such a
// panic into an error, so a CLI exits 1 with a message instead of a stack.
package cliutil

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// CheckJobs validates a -j value. Exits 2 when it is not positive.
func CheckJobs(n int) {
	if n < 1 {
		fmt.Fprintf(os.Stderr, "-j %d out of range: need at least 1 worker\n", n)
		os.Exit(2)
	}
}

// CheckChoice validates a flag value against its choices (for -platform,
// bench.PlatformNames). Exits 2, listing the choices, when value is none
// of them.
func CheckChoice(what, value string, choices []string) {
	if !slices.Contains(choices, value) {
		fmt.Fprintf(os.Stderr, "unknown %s %q; choose one of %s\n", what, value, Quoted(choices))
		os.Exit(2)
	}
}

// Quoted renders choices for flag help and usage errors: each one quoted,
// comma-separated.
func Quoted(choices []string) string {
	q := make([]string, len(choices))
	for i, c := range choices {
		q[i] = fmt.Sprintf("%q", c)
	}
	return strings.Join(q, ", ")
}

// Recover runs fn and returns a panic in it as the error "what: value".
// It returns nil when fn returns normally.
func Recover(what string, fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", what, r)
		}
	}()
	fn()
	return nil
}

// WriteFile creates path, hands it to write and closes it. Every error it
// returns names path, and the file is closed whether or not write fails.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
