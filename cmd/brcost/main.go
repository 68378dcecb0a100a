// Command brcost evaluates the paper's §3.4 hardware cost model for
// predictor configurations.
//
// Usage:
//
//	brcost -scheme 'PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))'
//	brcost -fig8                  # the equal-accuracy triple of Figure 8
//	brcost -sweep GAg -kmax 18    # cost vs history length for one scheme
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"twolevel"
)

func main() {
	var (
		scheme  = flag.String("scheme", "", "predictor specification to cost")
		fig8    = flag.Bool("fig8", false, "cost the three ~equal-accuracy configurations of Figure 8")
		sweep   = flag.String("sweep", "", "sweep history length for a variation: GAg, PAg or PAp")
		kmax    = flag.Int("kmax", 18, "largest history length in -sweep")
		version = flag.Bool("version", false, "print build provenance and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("brcost", twolevel.ReadBuildInfo())
		return
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	fmt.Fprintf(tw, "configuration\tBHT\tPHT\ttotal\n")

	emit := func(s string) {
		bd, err := twolevel.EstimateCost(s)
		if err != nil {
			tw.Flush() // keep the rows already costed
			fatal(err)
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\n", s, bd.BHT(), bd.PHT(), bd.Total())
	}

	switch {
	case *scheme != "":
		emit(*scheme)
	case *fig8:
		emit("GAg(HR(1,,18-sr),1xPHT(2^18,A2))")
		emit("PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))")
		emit("PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))")
	case *sweep != "":
		for k := 2; k <= *kmax; k += 2 {
			var s string
			switch *sweep {
			case "GAg":
				s = fmt.Sprintf("GAg(HR(1,,%d-sr),1xPHT(2^%d,A2))", k, k)
			case "PAg":
				s = fmt.Sprintf("PAg(BHT(512,4,%d-sr),1xPHT(2^%d,A2))", k, k)
			case "PAp":
				s = fmt.Sprintf("PAp(BHT(512,4,%d-sr),512xPHT(2^%d,A2))", k, k)
			default:
				fatal(fmt.Errorf("unknown variation %q", *sweep))
			}
			emit(s)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "brcost:", err)
	os.Exit(1)
}
