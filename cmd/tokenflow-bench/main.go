// Command tokenflow-bench regenerates the paper's tables and figures on
// the simulated substrate and prints them as aligned text tables.
//
// Usage:
//
//	tokenflow-bench            # run everything, paper order
//	tokenflow-bench fig16 tab02
//	TOKENFLOW_SCALE=0.25 tokenflow-bench fig14
//
// -csv also writes each selected experiment's table as DIR/<id>.csv, with
// the table header as the first record:
//
//	tokenflow-bench -csv experiment-csv routing chaos
//
// TOKENFLOW_SCALE must be a finite number above zero; any other value
// exits with status 2 instead of falling back to paper scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
)

// writeCSV writes one table to path as CSV.
func writeCSV(path string, tbl *experiments.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tbl.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	csvDir := flag.String("csv", "",
		"also write each selected experiment's table as CSV to `dir`/<id>.csv")
	flag.Parse()
	scale, err := experiments.ScaleFromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	experiments.Scale = scale

	ids := flag.Args()
	var exps []experiments.Experiment
	if len(ids) == 0 {
		exps = experiments.All()
	} else {
		for _, id := range ids {
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known:", id)
				for _, k := range experiments.All() {
					fmt.Fprintf(os.Stderr, " %s", k.ID)
				}
				fmt.Fprintln(os.Stderr)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Printf("TokenFlow evaluation harness (scale=%.2f)\n\n", experiments.Scale)
	for _, e := range exps {
		start := time.Now()
		tbl, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Print(tbl.Format())
		fmt.Printf("   (%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		if *csvDir != "" {
			if err := writeCSV(filepath.Join(*csvDir, e.ID+".csv"), tbl); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
				os.Exit(1)
			}
		}
	}
}
