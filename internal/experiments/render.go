package experiments

import (
	"fmt"
	"strings"

	"schedfilter/internal/features"
	"schedfilter/internal/workloads"
)

// This file renders experiment results as text tables shaped like the
// paper's tables and figure data.

func header(b *strings.Builder, title string) {
	fmt.Fprintf(b, "%s\n%s\n", title, strings.Repeat("-", len(title)))
}

// renderTable1 prints the feature list (paper Table 1).
func renderTable1() string {
	var b strings.Builder
	header(&b, "Table 1: Features of a basic block")
	fmt.Fprintf(&b, "%-12s %-10s %s\n", "Feature", "Type", "Meaning")
	fmt.Fprintf(&b, "%-12s %-10s %s\n", "bbLen", "BB size", "Number of instructions in the block")
	meaning := map[string][2]string{
		"branchs":     {"Op kind", "are branches"},
		"calls":       {"Op kind", "are calls"},
		"loads":       {"Op kind", "are loads"},
		"stores":      {"Op kind", "are stores"},
		"returns":     {"Op kind", "are returns"},
		"integers":    {"FU use", "use an integer functional unit"},
		"floats":      {"FU use", "use the floating-point functional unit"},
		"systems":     {"FU use", "use the system functional unit"},
		"peis":        {"Hazard", "are potentially excepting"},
		"gcpoints":    {"Hazard", "are garbage-collection points"},
		"tspoints":    {"Hazard", "are thread-switch points"},
		"yieldpoints": {"Hazard", "are yield points"},
	}
	for _, name := range features.Names[1:] {
		m := meaning[name]
		fmt.Fprintf(&b, "%-12s %-10s Fraction of instructions that %s\n", name, m[0], m[1])
	}
	return b.String()
}

// renderTable2 prints the suite-1 benchmark descriptions (paper Table 2).
func renderTable2() string {
	var b strings.Builder
	header(&b, "Table 2: Characteristics of the SPECjvm98 stand-in benchmarks")
	for _, w := range workloads.Suite1() {
		fmt.Fprintf(&b, "%-11s %s\n", w.Name, w.Description)
	}
	return b.String()
}

// renderTable7 prints the suite-2 benchmark descriptions (paper Table 7).
func renderTable7() string {
	var b strings.Builder
	header(&b, "Table 7: Benchmarks that benefit from scheduling")
	for _, w := range workloads.Suite2() {
		fmt.Fprintf(&b, "%-9s %s\n", w.Name, w.Description)
	}
	return b.String()
}

func renderMatrix(b *strings.Builder, benchmarks []string, thresholds []int, rows [][]float64, geomean []float64, format string) {
	fmt.Fprintf(b, "%-6s", "t")
	for _, name := range benchmarks {
		fmt.Fprintf(b, " %9s", truncate(name, 9))
	}
	fmt.Fprintf(b, " %9s\n", "geomean")
	for ti, t := range thresholds {
		fmt.Fprintf(b, "%3d%%  ", t)
		for _, v := range rows[ti] {
			fmt.Fprintf(b, " "+format, v)
		}
		fmt.Fprintf(b, " "+format+"\n", geomean[ti])
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// Render renders Table 3.
func (t *Table3Result) Render() string {
	var b strings.Builder
	header(&b, "Table 3: Classification error rates (percent misclassified)")
	renderMatrix(&b, t.Benchmarks, t.Thresholds, t.Err, t.Geomean, "%9.2f")
	return b.String()
}

// Render renders Table 4.
func (t *Table4Result) Render() string {
	var b strings.Builder
	header(&b, "Table 4: Predicted execution times (percent of no scheduling)")
	renderMatrix(&b, t.Benchmarks, t.Thresholds, t.Ratio, t.Geomean, "%9.2f")
	return b.String()
}

// Render renders Table 5.
func (t *Table5Result) Render() string {
	var b strings.Builder
	header(&b, "Table 5: Effect of t on training-set size")
	fmt.Fprintf(&b, "%-6s", "t")
	for _, th := range t.Thresholds {
		fmt.Fprintf(&b, " %6d", th)
	}
	fmt.Fprintf(&b, "\n%-6s", "LS")
	for _, v := range t.LS {
		fmt.Fprintf(&b, " %6d", v)
	}
	fmt.Fprintf(&b, "\nNS is constant at %d.\n", t.NS)
	return b.String()
}

// Render renders Table 6.
func (t *Table6Result) Render() string {
	var b strings.Builder
	header(&b, "Table 6: Effect of t on run-time classification of blocks")
	fmt.Fprintf(&b, "%-6s", "t")
	for _, th := range t.Thresholds {
		fmt.Fprintf(&b, " %6d", th)
	}
	fmt.Fprintf(&b, "\n%-6s", "NS")
	for _, v := range t.NS {
		fmt.Fprintf(&b, " %6d", v)
	}
	fmt.Fprintf(&b, "\n%-6s", "LS")
	for _, v := range t.LS {
		fmt.Fprintf(&b, " %6d", v)
	}
	fmt.Fprintf(&b, "\nTotal blocks per threshold: %d.\n", t.Total)
	return b.String()
}

// RenderSchedTime renders a scheduling-time figure (1a/2a/3a).
func (f *FigureResult) RenderSchedTime(title string) string {
	var b strings.Builder
	header(&b, title)
	b.WriteString("Scheduling time of the L/N filter relative to always list scheduling (LS = 1.0, NS = 0):\n")
	renderMatrix(&b, f.Benchmarks, f.Thresholds, f.Rel, f.Geomean, "%9.3f")
	return b.String()
}

// RenderAppTime renders an application-running-time figure (1b/2b/3b).
func (f *FigureResult) RenderAppTime(title string) string {
	var b strings.Builder
	header(&b, title)
	b.WriteString("Application running time relative to no scheduling (NS = 1.0; below 1 is faster):\n")
	fmt.Fprintf(&b, "%-6s", "LS")
	for _, v := range f.LSRel {
		fmt.Fprintf(&b, " %9.4f", v)
	}
	fmt.Fprintf(&b, " %9.4f\n", geomean(f.LSRel))
	renderMatrix(&b, f.Benchmarks, f.Thresholds, f.Rel, f.Geomean, "%9.4f")
	return b.String()
}
