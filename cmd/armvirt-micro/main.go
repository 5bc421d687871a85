// Command armvirt-micro regenerates the paper's microbenchmark results:
// Table II across the four platforms and, with -breakdown, the Table III
// hypercall cost attribution.
//
// Usage:
//
//	armvirt-micro [-platform "KVM ARM"] [-breakdown] [-vhe] [-json]
package main

import (
	"flag"
	"fmt"
	"os"

	"armvirt/internal/bench"
)

func main() {
	platformFlag := flag.String("platform", "", `limit to one platform ("KVM ARM", "Xen ARM", "KVM x86", "Xen x86")`)
	breakdown := flag.Bool("breakdown", false, "also print the Table III hypercall breakdown")
	vhe := flag.Bool("vhe", false, "include the ARMv8.1 VHE configuration as an extra column")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON (structured result rows) instead of the table")
	flag.Parse()

	labels := bench.Platforms
	if *platformFlag != "" {
		if _, ok := bench.PaperTableII[*platformFlag]; !ok {
			fmt.Fprintf(os.Stderr, "unknown platform %q; choose one of %v\n", *platformFlag, bench.Platforms)
			os.Exit(2)
		}
		labels = []string{*platformFlag}
	}
	if *vhe {
		labels = append(append([]string{}, labels...), "KVM ARM (VHE)")
	}

	results := []bench.Result{bench.RunTableII(labels...)}
	if *breakdown {
		results = append(results, bench.RunTableIII())
	}

	if *asJSON {
		if err := bench.WriteRowsJSON(os.Stdout, results...); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	for i, r := range results {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(r.Render())
	}
}
