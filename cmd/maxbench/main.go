// Command maxbench regenerates the paper's evaluation artefacts:
// Tables 1–3, the Fig. 2/3 schedule renderings, the §4.3 performance
// sweep and the §6 case studies, each printed with the published
// numbers alongside this repository's models and (optionally) live
// software measurements on the current host.
//
// Usage:
//
//	maxbench                  # everything, with live software measurement
//	maxbench -table 2         # one table (1, 2 or 3)
//	maxbench -figure 3 -b 16  # one figure at a chosen bit-width
//	maxbench -case portfolio  # one case study
//	maxbench -fast            # skip the live software measurement
package main

import (
	"flag"
	"fmt"
	"os"

	"maxelerator/internal/report"
)

func main() {
	table := flag.Int("table", 0, "print one table (1, 2 or 3)")
	figure := flag.Int("figure", 0, "print one figure (2 or 3)")
	study := flag.String("case", "", "print one case study (recommendation or portfolio)")
	width := flag.Int("b", 8, "bit-width for figure renderings")
	fast := flag.Bool("fast", false, "skip live software measurement in Table 2")
	rounds := flag.Int("rounds", 200, "MAC rounds per width for the live software measurement")
	flag.Parse()

	if err := run(*table, *figure, *study, *width, *fast, *rounds); err != nil {
		fmt.Fprintln(os.Stderr, "maxbench:", err)
		os.Exit(1)
	}
}

func run(table, figure int, study string, width int, fast bool, rounds int) error {
	measure := func() ([]report.SoftwareMeasurement, error) {
		if fast {
			return nil, nil
		}
		return report.MeasureSoftware(rounds)
	}

	switch {
	case table != 0:
		switch table {
		case 1:
			t, err := report.Table1()
			if err != nil {
				return err
			}
			fmt.Println(t)
		case 2:
			m, err := measure()
			if err != nil {
				return err
			}
			t, err := report.Table2(m)
			if err != nil {
				return err
			}
			fmt.Println(t)
		case 3:
			t, err := report.Table3()
			if err != nil {
				return err
			}
			fmt.Println(t)
		default:
			return fmt.Errorf("unknown table %d", table)
		}
	case figure != 0:
		var out string
		var err error
		switch figure {
		case 2:
			out, err = report.Fig2(width)
		case 3:
			out, err = report.Fig3(width)
		default:
			return fmt.Errorf("unknown figure %d", figure)
		}
		if err != nil {
			return err
		}
		fmt.Println(out)
	case study != "":
		var t fmt.Stringer
		var err error
		switch study {
		case "recommendation":
			t, err = report.CaseRecommendation()
		case "portfolio":
			t, err = report.CasePortfolio()
		default:
			return fmt.Errorf("unknown case study %q", study)
		}
		if err != nil {
			return err
		}
		fmt.Println(t)
	default:
		m, err := measure()
		if err != nil {
			return err
		}
		all, err := report.All(m)
		if err != nil {
			return err
		}
		fmt.Print(all)
	}
	return nil
}
