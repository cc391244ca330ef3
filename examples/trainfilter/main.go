// trainfilter: the paper's learning methodology in miniature — collect
// training instances from the bundled benchmarks, run leave-one-out
// cross-validation at a few thresholds, and print one induced rule set in
// the paper's Figure-4 style.
package main

import (
	"fmt"
	"log"

	"schedfilter"
)

func main() {
	m := schedfilter.NewMachine()
	opts := schedfilter.DefaultCompileOptions()

	var data []*schedfilter.BenchData
	for _, w := range schedfilter.WorkloadsSuite1() {
		w := w
		bd, err := schedfilter.CollectTrainingData(&w, m, opts)
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, bd)
		fmt.Printf("collected %-10s %4d blocks\n", bd.Name, len(bd.Records))
	}

	fmt.Println("\nleave-one-out cross-validation (classification error, %):")
	fmt.Printf("%-10s", "t")
	for _, bd := range data {
		fmt.Printf(" %10s", bd.Name)
	}
	fmt.Println()
	for _, t := range []int{0, 10, 20} {
		fmt.Printf("%-10d", t)
		for _, bd := range data {
			f := schedfilter.TrainLeaveOneOut(data, bd.Name, t, schedfilter.DefaultRipperOptions())
			errRate := classificationError(f, bd, t)
			fmt.Printf(" %9.2f%%", 100*errRate)
		}
		fmt.Println()
	}

	fmt.Println("\na filter trained on all seven benchmarks at t=0 (Figure-4 style):")
	final := schedfilter.TrainFilter(data, 0, schedfilter.DefaultRipperOptions())
	fmt.Print(final.Rules.String())
}

// classificationError recomputes the paper's test-set error: over the
// held-out benchmark's labelled instances, how often does the filter
// disagree with the label?
func classificationError(f schedfilter.Policy, bd *schedfilter.BenchData, t int) float64 {
	total, wrong := 0, 0
	for i := range bd.Records {
		r := &bd.Records[i]
		var label bool
		switch {
		case r.CostLS >= r.CostNS:
			label = false
		case 100*r.CostLS < r.CostNS*(100-t):
			label = true
		default:
			continue // dropped by the threshold, as in the paper
		}
		total++
		if schedfilter.Schedules(f, r.Feat) != label {
			wrong++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(wrong) / float64(total)
}
