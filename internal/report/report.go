// Package report holds scheme x workload result matrices and renders the
// tabular reports behind the paper's figures. Matrices come from campaigns
// (internal/campaign); the views are shared by cmd/readduo-sim and the
// benchmark harness at the repository root.
package report

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"readduo/internal/metrics"
	"readduo/internal/sim"
)

// Matrix holds the results of a scheme x workload sweep.
type Matrix struct {
	Benchmarks []string
	Schemes    []string
	// Results[b][s] pairs Benchmarks[b] with Schemes[s].
	Results [][]*sim.Result
}

// schemeIndex locates a scheme column.
func (m *Matrix) schemeIndex(name string) (int, error) {
	for j, s := range m.Schemes {
		if s == name {
			return j, nil
		}
	}
	return 0, fmt.Errorf("report: scheme %q not in matrix", name)
}

// Columns returns the sub-matrix of the named scheme columns, in the given
// order. Benchmarks and results are shared with m, not copied.
func (m *Matrix) Columns(names ...string) (*Matrix, error) {
	idx := make([]int, len(names))
	for k, name := range names {
		j, err := m.schemeIndex(name)
		if err != nil {
			return nil, err
		}
		idx[k] = j
	}
	out := &Matrix{
		Benchmarks: m.Benchmarks,
		Schemes:    append([]string(nil), names...),
		Results:    make([][]*sim.Result, len(m.Results)),
	}
	for i, row := range m.Results {
		out.Results[i] = make([]*sim.Result, len(idx))
		for k, j := range idx {
			out.Results[i][k] = row[j]
		}
	}
	return out, nil
}

// Normalized extracts metric values normalized to the reference scheme's
// value per benchmark, plus the cross-suite mean per scheme.
func (m *Matrix) Normalized(refScheme string, metric func(*sim.Result) float64) (rows [][]float64, means []float64, err error) {
	ref, err := m.schemeIndex(refScheme)
	if err != nil {
		return nil, nil, err
	}
	rows = make([][]float64, len(m.Benchmarks))
	sums := make([]float64, len(m.Schemes))
	for i := range m.Benchmarks {
		rows[i] = make([]float64, len(m.Schemes))
		base := metric(m.Results[i][ref])
		if base == 0 {
			return nil, nil, fmt.Errorf("report: zero reference for %s", m.Benchmarks[i])
		}
		for j := range m.Schemes {
			rows[i][j] = metric(m.Results[i][j]) / base
			sums[j] += rows[i][j]
		}
	}
	means = make([]float64, len(m.Schemes))
	for j := range sums {
		means[j] = sums[j] / float64(len(m.Benchmarks))
	}
	return rows, means, nil
}

// Common metric extractors.

// ExecTime extracts execution time (Figure 9).
func ExecTime(r *sim.Result) float64 { return float64(r.ExecTime) }

// DynamicEnergy extracts total dynamic energy (Figure 10).
func DynamicEnergy(r *sim.Result) float64 { return r.Energy.Total() }

// SystemEnergy extracts dynamic plus static energy.
func SystemEnergy(r *sim.Result) float64 { return r.SystemEnergyPJ }

// CellWrites extracts total programmed cells (Figure 15's determinant).
func CellWrites(r *sim.Result) float64 { return float64(r.CellWrites) }

// EDAPMatrix computes per-scheme EDAP normalized to a reference scheme
// (Figure 11), averaging energy and delay across the suite.
func (m *Matrix) EDAPMatrix(refScheme string, system bool) (map[string]float64, error) {
	energyOf := DynamicEnergy
	if system {
		energyOf = SystemEnergy
	}
	raw := make(map[string]float64, len(m.Schemes))
	for j, name := range m.Schemes {
		var sum float64
		for i := range m.Benchmarks {
			r := m.Results[i][j]
			edap, err := metrics.EDAP(energyOf(r), r.ExecTime.Seconds(), r.AreaCellsPerLine)
			if err != nil {
				return nil, err
			}
			sum += edap
		}
		raw[name] = sum / float64(len(m.Benchmarks))
	}
	ref, ok := raw[refScheme]
	if !ok || ref == 0 {
		return nil, fmt.Errorf("report: bad EDAP reference %q", refScheme)
	}
	out := make(map[string]float64, len(raw))
	for name, v := range raw {
		out[name] = v / ref
	}
	return out, nil
}

// RelativeLifetime returns per-scheme lifetime relative to the reference
// (Figure 15), averaged across the suite. Wear is normalized per cell:
// a scheme with a larger per-line footprint (TLC) also has more cells to
// spread its writes across, so lifetime compares cell-writes divided by
// cells-per-line.
func (m *Matrix) RelativeLifetime(refScheme string) (map[string]float64, error) {
	ref, err := m.schemeIndex(refScheme)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(m.Schemes))
	for j, name := range m.Schemes {
		var sum float64
		for i := range m.Benchmarks {
			baseRes := m.Results[i][ref]
			res := m.Results[i][j]
			if res.CellWrites == 0 || res.AreaCellsPerLine == 0 || baseRes.AreaCellsPerLine == 0 {
				return nil, fmt.Errorf("report: %s/%s has no wear data", m.Benchmarks[i], name)
			}
			baseWear := float64(baseRes.CellWrites) / baseRes.AreaCellsPerLine
			wear := float64(res.CellWrites) / res.AreaCellsPerLine
			sum += baseWear / wear
		}
		out[name] = sum / float64(len(m.Benchmarks))
	}
	return out, nil
}

// WriteNormalizedTable renders a per-benchmark normalized table with a
// trailing mean row, in the layout of the paper's bar charts.
func WriteNormalizedTable(w io.Writer, title string, m *Matrix, rows [][]float64, means []float64) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if _, err := fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title))); err != nil {
		return err
	}
	fmt.Fprintf(tw, "benchmark\t%s\n", strings.Join(m.Schemes, "\t"))
	for i, bench := range m.Benchmarks {
		cells := make([]string, len(rows[i]))
		for j, v := range rows[i] {
			cells[j] = fmt.Sprintf("%.3f", v)
		}
		fmt.Fprintf(tw, "%s\t%s\n", bench, strings.Join(cells, "\t"))
	}
	meanCells := make([]string, len(means))
	for j, v := range means {
		meanCells[j] = fmt.Sprintf("%.3f", v)
	}
	fmt.Fprintf(tw, "MEAN\t%s\n", strings.Join(meanCells, "\t"))
	return tw.Flush()
}

// WriteKeyValueTable renders a scheme -> value table in a stable order.
func WriteKeyValueTable(w io.Writer, title string, order []string, values map[string]float64) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if _, err := fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title))); err != nil {
		return err
	}
	for _, name := range order {
		if v, ok := values[name]; ok {
			fmt.Fprintf(tw, "%s\t%.3f\n", name, v)
		}
	}
	return tw.Flush()
}

// FormatDuration renders simulated durations compactly.
func FormatDuration(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
