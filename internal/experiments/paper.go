package experiments

import (
	"strings"

	"schedfilter/internal/machine"
	"schedfilter/internal/ripper"
	"schedfilter/internal/workloads"
)

// PaperResult is the paper's evaluation in one run: every table and
// figure, plus the superblock, model and ablation studies that extend
// it. Every field reproduces on any host, so the whole result is the
// artifact's deterministic section.
type PaperResult struct {
	Table3        *Table3Result           `json:"table3"`
	Table4        *Table4Result           `json:"table4"`
	Table5        *Table5Result           `json:"table5"`
	Table6        *Table6Result           `json:"table6"`
	Fig1a         *FigureResult           `json:"fig1a"`
	Fig1b         *FigureResult           `json:"fig1b"`
	Fig2a         *FigureResult           `json:"fig2a"`
	Fig2b         *FigureResult           `json:"fig2b"`
	Fig3a         *FigureResult           `json:"fig3a"`
	Fig3b         *FigureResult           `json:"fig3b"`
	Superblocks   *SuperblockResult       `json:"superblocks"`
	SuperblocksFP *SuperblockResult       `json:"superblocks_fp"`
	SBFilter      *SuperblockFilterResult `json:"sbfilter"`
	Models        *ModelCompareResult     `json:"models"`
	Ablation      *AblationResult         `json:"ablation"`
	// Fig4 is the Figure 4 rule set in its full-precision Format text,
	// one line per element.
	Fig4 []string `json:"fig4"`

	fig4 *ripper.RuleSet
}

// Paper runs the whole evaluation in the order Render prints it.
func (r *Runner) Paper() (*PaperResult, error) {
	p := &PaperResult{}
	var err error
	if p.Table3, err = r.Table3(); err != nil {
		return nil, err
	}
	if p.Table4, err = r.Table4(); err != nil {
		return nil, err
	}
	if p.Table5, err = r.Table5(); err != nil {
		return nil, err
	}
	if p.Table6, err = r.Table6(); err != nil {
		return nil, err
	}
	if p.Fig2a, err = r.SchedCostFigure(workloads.SuiteJVM98, Thresholds); err != nil {
		return nil, err
	}
	if p.Fig2b, err = r.AppTimeFigure(workloads.SuiteJVM98, Thresholds); err != nil {
		return nil, err
	}
	p.Fig1a, p.Fig1b = p.Fig2a.firstRow(), p.Fig2b.firstRow()
	if p.Fig3a, err = r.SchedCostFigure(workloads.SuiteFP, Thresholds); err != nil {
		return nil, err
	}
	if p.Fig3b, err = r.AppTimeFigure(workloads.SuiteFP, Thresholds); err != nil {
		return nil, err
	}
	if p.Superblocks, err = r.Superblocks(workloads.SuiteJVM98); err != nil {
		return nil, err
	}
	if p.SuperblocksFP, err = r.Superblocks(workloads.SuiteFP); err != nil {
		return nil, err
	}
	if p.SBFilter, err = r.SuperblockFilter(workloads.SuiteFP); err != nil {
		return nil, err
	}
	models := []*machine.Model{machine.Default().Model, machine.MustByName("scalar603").Model}
	if p.Models, err = compareModels(r.cfg, models); err != nil {
		return nil, err
	}
	if p.Ablation, err = r.Ablation(); err != nil {
		return nil, err
	}
	if p.fig4, err = r.Figure4(); err != nil {
		return nil, err
	}
	p.Fig4 = strings.Split(strings.TrimSuffix(p.fig4.Format(), "\n"), "\n")
	return p, nil
}

// Render prints every table and figure in the paper's shape, the static
// tables (1, 2 and 7) first, sections separated by a blank line.
func (p *PaperResult) Render() string {
	var fig4 strings.Builder
	header(&fig4, "Figure 4: Induced heuristic generated by Ripper")
	fig4.WriteString(strings.TrimSuffix(p.fig4.String(), "\n"))
	return strings.Join([]string{
		renderTable1(),
		renderTable2(),
		renderTable7(),
		p.Table3.Render(),
		p.Table4.Render(),
		p.Table5.Render(),
		p.Table6.Render(),
		p.Fig1a.RenderSchedCost("Figure 1(a): scheduling cost, no threshold (t=0)"),
		p.Fig1b.RenderAppTime("Figure 1(b): application running time, no threshold (t=0)"),
		p.Fig2a.RenderSchedCost("Figure 2(a): scheduling cost across thresholds"),
		p.Fig2b.RenderAppTime("Figure 2(b): application running time across thresholds"),
		p.Fig3a.RenderSchedCost("Figure 3(a): scheduling cost, benefits suite"),
		p.Fig3b.RenderAppTime("Figure 3(b): application running time, benefits suite"),
		p.Superblocks.Render("Superblock scheduling vs local scheduling (suite 1)"),
		p.SuperblocksFP.Render("Superblock scheduling vs local scheduling (benefits suite)"),
		p.SBFilter.Render("Superblock filter: per-trace whether-to-schedule (benefits suite, t=0)"),
		p.Models.Render(),
		p.Ablation.Render(),
		fig4.String(),
	}, "\n")
}

// Artifact returns the evaluation as an artifact; it has no timing
// section.
func (p *PaperResult) Artifact() Artifact { return Artifact{Deterministic: p} }
