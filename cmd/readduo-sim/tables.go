package main

import (
	"fmt"
	"io"
	"text/tabwriter"

	"readduo/internal/drift"
	"readduo/internal/reliability"
	"readduo/internal/report"
)

// tablesPlan selects the analytical reliability tables, which need no
// simulation: the drift-model configurations (Tables I/II), the line error
// rates under (BCH=E, S) efficient scrubbing for both readout metrics
// (Tables III/IV), and the W=1 interval probabilities (Table V).
func tablesPlan(tables, metric string) (plan, error) {
	printR := metric == "R" || metric == "both"
	printM := metric == "M" || metric == "both"
	if !printR && !printM {
		return plan{}, fmt.Errorf("unknown metric %q", metric)
	}
	var p plan
	add := func(set string, on bool, v view) {
		if on && (tables == "all" || tables == set) {
			p.views = append(p.views, v)
		}
	}
	add("config", printR, configTable("Table I: R-metric configuration (t0 = 1s)", drift.RMetricConfig()))
	add("config", printM, configTable("Table II: M-metric configuration (t0 = 1s)", drift.MMetricConfig()))
	add("ler", printR, lerTable("Table III: LER under (BCH=E, S) with R-metric sensing", drift.RMetricConfig()))
	add("ler", printM, lerTable("Table IV: LER under (BCH=E, S) with M-metric sensing", drift.MMetricConfig()))
	add("wpolicy", true, wpolicyTable)
	if len(p.views) == 0 {
		return plan{}, fmt.Errorf("unknown table set %q", tables)
	}
	return p, nil
}

func configTable(title string, cfg drift.Config) view {
	return func(w io.Writer, _ *report.Matrix) error {
		fmt.Fprintln(w, title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "level\tdata\tmu_log10\tsigma_log10\tmu_alpha\tsigma_alpha")
		for i, lv := range cfg.Levels {
			fmt.Fprintf(tw, "%d\t%02b\t%g\t%.4f\t%g\t%g\n",
				i, lv.Data, lv.MuLog, lv.SigmaLog, lv.MuAlpha, lv.SigmaAlpha)
		}
		return tw.Flush()
	}
}

func lerTable(title string, cfg drift.Config) view {
	return func(w io.Writer, _ *report.Matrix) error {
		an, err := reliability.NewAnalyzer(cfg)
		if err != nil {
			return err
		}
		tab := an.BuildTable(reliability.PaperIntervals(), reliability.PaperECCs())
		fmt.Fprintln(w, title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprint(tw, "S (s)")
		for _, e := range tab.ECCs {
			fmt.Fprintf(tw, "\tE=%d", e)
		}
		fmt.Fprintln(tw, "\ttarget")
		for i, s := range tab.Intervals {
			fmt.Fprintf(tw, "%g", s)
			for _, v := range tab.Values[i] {
				fmt.Fprintf(tw, "\t%s", formatProb(v))
			}
			fmt.Fprintf(tw, "\t%.2e\n", tab.Targets[i])
		}
		return tw.Flush()
	}
}

// formatProb renders probabilities the way the paper does, collapsing the
// numerically invisible ones.
func formatProb(v float64) string {
	if v < 1e-30 {
		return "too small"
	}
	return fmt.Sprintf("%.2e", v)
}

func wpolicyTable(w io.Writer, _ *report.Matrix) error {
	rAn, err := reliability.NewAnalyzer(drift.RMetricConfig())
	if err != nil {
		return err
	}
	mAn, err := reliability.NewAnalyzer(drift.MMetricConfig())
	if err != nil {
		return err
	}
	rows := []struct {
		label string
		an    *reliability.Analyzer
		e     int
		s     float64
	}{
		{"R(BCH=8,S=8)", rAn, 8, 8},
		{"R(BCH=10,S=8)", rAn, 10, 8},
		{"M(BCH=8,S=640)", mAn, 8, 640},
	}
	fmt.Fprintln(w, "Table V: W=1 interval probabilities (ii) and (iii)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tprob(ii)\tbudget(2S)\tprob(iii)\tbudget(3S)\tW=1 safe")
	for _, row := range rows {
		p2, err := row.an.WPolicySecondInterval(row.e, 1, row.s)
		if err != nil {
			return err
		}
		p3, err := row.an.WPolicyThirdInterval(row.e, 1, row.s)
		if err != nil {
			return err
		}
		b2 := reliability.TargetLER(2 * row.s)
		b3 := reliability.TargetLER(3 * row.s)
		fmt.Fprintf(tw, "%s\t%s\t%.2e\t%s\t%.2e\t%v\n",
			row.label, formatProb(p2), b2, formatProb(p3), b3, p2 <= b2 && p3 <= b3)
	}
	return tw.Flush()
}
