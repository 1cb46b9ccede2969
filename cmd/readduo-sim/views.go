package main

import (
	"fmt"
	"io"
	"text/tabwriter"

	"readduo/internal/area"
	"readduo/internal/report"
	"readduo/internal/sim"
)

// A view renders one report from the campaign's first-replicate matrix,
// which is nil when the plan simulates nothing. The plan separates views
// with a blank line.
type view func(w io.Writer, m *report.Matrix) error

// A plan is what one invocation simulates and prints: the campaign's
// scheme columns and the views rendered, in order, from its matrix.
type plan struct {
	schemes []sim.Scheme
	views   []view
}

func (p plan) render(w io.Writer, m *report.Matrix) error {
	for _, v := range p.views {
		if err := v(w, m); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// planFor resolves -schemes and -report for the subcommand before anything
// runs, so a bad view name costs no simulation.
func planFor(opts options) (plan, error) {
	switch opts.command {
	case "sweep":
		return sweepPlan(opts)
	case "edap":
		return edapPlan(opts)
	}
	schemes, err := selectSchemes(opts.schemeSet)
	if err != nil {
		return plan{}, err
	}
	views, ok := map[string][]view{
		"time":     {figure9},
		"energy":   {figure10},
		"lifetime": {figure15},
		"all":      {figure9, figure10, figure15},
	}[opts.what]
	if !ok {
		return plan{}, fmt.Errorf("unknown report %q", opts.what)
	}
	return plan{schemes: schemes, views: views}, nil
}

var (
	figure9  = normalizedView("Figure 9: execution time normalized to Ideal", "Ideal", report.ExecTime, "")
	figure10 = normalizedView("Figure 10: dynamic energy normalized to Ideal", "Ideal", report.DynamicEnergy, "")
)

func figure15(w io.Writer, m *report.Matrix) error {
	life, err := m.RelativeLifetime("Ideal")
	if err != nil {
		return err
	}
	return report.WriteKeyValueTable(w, "Figure 15: lifetime relative to Ideal", m.Schemes, life)
}

// normalizedView renders metric normalized to the ref column with the
// suite mean. A non-empty gain names the mean improvement of the third
// column over the second, the sensitivity studies' headline line.
func normalizedView(title, ref string, metric func(*sim.Result) float64, gain string) view {
	return func(w io.Writer, m *report.Matrix) error {
		rows, means, err := m.Normalized(ref, metric)
		if err != nil {
			return err
		}
		if err := report.WriteNormalizedTable(w, title, m, rows, means); err != nil || gain == "" {
			return err
		}
		_, err = fmt.Fprintf(w, "\n%s (mean): %.2f%%\n", gain, 100*(means[1]-means[2])/means[1])
		return err
	}
}

// sensitivityStudies are the paper's sweeps (Figures 12-14) in
// -report=all order: each compares two design points against Ideal.
var sensitivityStudies = []struct {
	name    string
	schemes []sim.Scheme
	view    view
}{
	{"k", []sim.Scheme{sim.Ideal(), sim.LWT(2, true), sim.LWT(4, true)}, normalizedView(
		"Figure 12: sub-interval count k (execution time vs Ideal)", "Ideal", report.ExecTime,
		"k=4 improvement over k=2")},
	{"s", []sim.Scheme{sim.Ideal(), sim.Select(4, 1), sim.Select(4, 2)}, normalizedView(
		"Figure 13: rewrite spacing s (dynamic energy vs Ideal)", "Ideal", report.DynamicEnergy,
		"s=2 energy saving over s=1")},
	{"conversion", []sim.Scheme{sim.Ideal(), sim.LWT(4, false), sim.LWT(4, true)}, normalizedView(
		"Figure 14: R-M-read conversion off vs on (execution time vs Ideal)", "Ideal", report.ExecTime,
		"conversion improvement")},
}

// sweepPlan runs the chosen studies as one campaign over the union of
// their columns; each study renders its own columns of the shared matrix.
// A job depends only on (seed, benchmark, scheme, budget), so sharing
// columns changes no number. A -schemes list selects the custom view.
func sweepPlan(opts options) (plan, error) {
	what := opts.what
	if what == "all" && opts.schemeSet != "" {
		what = "custom"
	}
	if what == "custom" {
		if opts.schemeSet == "" {
			return plan{}, fmt.Errorf("-report=custom needs -schemes (e.g. -schemes=Ideal,LWT-8,Select-4:2)")
		}
		schemes, err := sim.ParseList(opts.schemeSet)
		if err != nil {
			return plan{}, err
		}
		if len(schemes) < 2 {
			return plan{}, fmt.Errorf("custom sweep needs at least two schemes, got %d", len(schemes))
		}
		base := schemes[0].Name()
		return plan{schemes: schemes, views: []view{normalizedView(
			"Custom sweep: execution time vs "+base, base, report.ExecTime, "")}}, nil
	}
	if opts.schemeSet != "" {
		return plan{}, fmt.Errorf("-schemes selects the custom sweep; it does not combine with -report=%s", what)
	}
	var p plan
	seen := make(map[string]bool)
	for _, study := range sensitivityStudies {
		if what != "all" && what != study.name {
			continue
		}
		names := make([]string, len(study.schemes))
		for i, s := range study.schemes {
			names[i] = s.Name()
			if !seen[names[i]] {
				seen[names[i]] = true
				p.schemes = append(p.schemes, s)
			}
		}
		v := study.view
		p.views = append(p.views, func(w io.Writer, m *report.Matrix) error {
			sub, err := m.Columns(names...)
			if err != nil {
				return err
			}
			return v(w, sub)
		})
	}
	if len(p.views) == 0 {
		return plan{}, fmt.Errorf("unknown report %q", what)
	}
	return p, nil
}

// edapPlan renders the density side of the evaluation: Table VII alone
// (-report=area, no simulation) or with the footprints and Figure 11.
func edapPlan(opts options) (plan, error) {
	switch opts.what {
	case "area":
		return plan{views: []view{tableVII}}, nil
	case "all":
	default:
		return plan{}, fmt.Errorf("unknown report %q", opts.what)
	}
	schemes := sim.EDAPSchemes()
	if opts.schemeSet != "" {
		var err error
		if schemes, err = sim.ParseList(opts.schemeSet); err != nil {
			return plan{}, err
		}
	}
	return plan{schemes: schemes, views: []view{
		tableVII, footprints, edapView("Product-D", "dynamic", false), edapView("Product-S", "system", true),
	}}, nil
}

// edapView renders one Figure 11 Energy-Delay-Area product, with dynamic
// or system energy, normalized to the first scheme column.
func edapView(product, energy string, system bool) view {
	return func(w io.Writer, m *report.Matrix) error {
		base := m.Schemes[0]
		edap, err := m.EDAPMatrix(base, system)
		if err != nil {
			return err
		}
		return report.WriteKeyValueTable(w,
			fmt.Sprintf("Figure 11 %s: EDAP (%s energy) normalized to %s", product, energy, base), m.Schemes, edap)
	}
}

// tableVII renders the NVSim-lite subarray decomposition.
func tableVII(w io.Writer, _ *report.Matrix) error {
	sub := area.DefaultSubarray()
	occ, err := sub.Occupancy()
	if err != nil {
		return err
	}
	ovh, err := sub.HybridOverhead()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table VII: subarray area occupancy (hybrid sense amplifier)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "cell array\t%.2f%%\n", 100*occ.CellArray)
	fmt.Fprintf(tw, "row decoder\t%.2f%%\n", 100*occ.RowDecoder)
	fmt.Fprintf(tw, "column mux\t%.2f%%\n", 100*occ.ColumnMux)
	fmt.Fprintf(tw, "current-mode S/A\t%.2f%%\n", 100*occ.CurrentSA)
	fmt.Fprintf(tw, "voltage-mode S/A (added)\t%.2f%%\n", 100*occ.VoltageSA)
	fmt.Fprintf(tw, "mat routing share\t%.2f%%\n", 100*occ.MatShare)
	fmt.Fprintf(tw, "hybrid overhead vs current-only\t%.2f%%\n", 100*ovh)
	return tw.Flush()
}

// footprints renders the cells each design needs per protected 64B line,
// the density axis of Figure 11.
func footprints(w io.Writer, _ *report.Matrix) error {
	tlc := area.TLCFootprint()
	mlc, err := area.MLCFootprint(80, 0)
	if err != nil {
		return err
	}
	lwtFp, err := area.MLCFootprint(80, 6)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Cells to store one protected 64B line (Figure 11, density axis)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, r := range []struct {
		name  string
		cells float64
	}{
		{"TLC (72,64) SECDED", tlc.EquivalentCells()},
		{"MLC + BCH-8 (Scrubbing/M-metric/Hybrid)", mlc.EquivalentCells()},
		{"MLC + BCH-8 + LWT-4 flags", lwtFp.EquivalentCells()},
	} {
		fmt.Fprintf(tw, "%s\t%.0f cells\t%.3f of TLC\n", r.name, r.cells, r.cells/tlc.EquivalentCells())
	}
	return tw.Flush()
}
