// Package exp holds the paper's models and the experiment harness built on
// them. The models are the FPGA resource estimators (Tables II/III, the
// Fig. 5 floorplan), the cycle-level macro-pipeline (Fig. 1a), the
// roofline and design-space exploration (Figs. 2a/2b), the host/FPGA
// schedule (Fig. 1b) and the calibrated CPU/GPU/Paillier cost models of
// the comparison devices. The harness is one experiment per table and
// figure of the evaluation, each regenerating its rows from those models
// beside the value the paper reports. cmd/chamsim and the repository
// benchmarks are thin wrappers over this registry.
package exp

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render produces an aligned plain-text table.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Paper string // the headline result the paper reports for this artifact
	Run   func() []*Table
}

// Render produces the experiment's report as `chamsim` prints it: a
// `# id — title` line, the paper's result, then every table.
func (e Experiment) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\npaper: %s\n\n", e.ID, e.Title, e.Paper)
	for _, tb := range e.Run() {
		b.WriteString(tb.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// registry lists the experiments in the order `chamsim all` runs them:
// the evaluation figures, the floorplan, the hardware tables and figures,
// and last software, the only one that times this host.
var registry = []Experiment{
	{
		ID:    "fig6",
		Title: "HMVP throughput vs matrix shape (CHAM vs GPU)",
		Paper: "near-linear in m; n matters little until rows span multiple ciphertexts; 4.5x over GPU",
		Run:   runFig6,
	},
	{
		ID:    "fig8",
		Title: "HMVP latency: CPU vs GPU vs CHAM",
		Paper: ">10x over CPU; 0.3-0.7x of GPU latency; >90% offloaded",
		Run:   runFig8,
	},
	{
		ID:    "fig7ab",
		Title: "HeteroLR step times and end-to-end speed-up",
		Paper: "matvec 30x-1800x vs FATE Paillier; end-to-end 2x-36x",
		Run:   runFig7ab,
	},
	{
		ID:    "fig7c",
		Title: "Beaver triple generation speed-up",
		Paper: "49x-144x vs the original Delphi implementation",
		Run:   runFig7c,
	},
	{
		ID:    "fig1b",
		Title: "Host/FPGA pipelining (overlap vs serial offload)",
		Paper: "interleaved transfer and compute across threads and engines",
		Run:   runFig1b,
	},
	{
		ID:    "headline",
		Title: "Headline speed-ups",
		Paper: "1800x HMVP, 36x logistic regression, 144x Beaver triples",
		Run:   runHeadline,
	},
	{
		ID:    "fig5",
		Title: "Floorplan rebalancing on the VU9P",
		Paper: "initial floorplan over-used BRAM; replaced some BRAM with URAM/LUTRAM to keep all classes below 75%",
		Run:   runFig5,
	},
	{
		ID:    "table2",
		Title: "Resource utilization on the Xilinx VU9P",
		Paper: "engines 259318/259502 LUT; totals 63.68% LUT, 20.41% FF, 72.13% BRAM, 61.98% URAM, 29.04% DSP",
		Run:   runTable2,
	},
	{
		ID:    "table3",
		Title: "Single NTT module comparison (CHAM strategies vs HEAX vs F1)",
		Paper: "CHAM 6144 cycles / 3324 LUT / 14 BRAM; HEAX ATP 6.71x; F1 ATP 7.36x",
		Run:   runTable3,
	},
	{
		ID:    "fig2a",
		Title: "Roofline on the U200: HE operators vs fused HMVP",
		Paper: "NTT and key-switch memory-bound; HMVP compute-bound",
		Run:   runFig2a,
	},
	{
		ID:    "fig2b",
		Title: "Design-space exploration",
		Paper: "optima: (6xNTT, 4-PE, 2 engines) and (6xNTT, 8-PE, 1 engine)",
		Run:   runFig2b,
	},
	{
		ID:    "nttops",
		Title: "NTT and key-switch throughput (Section V-B.1)",
		Paper: "60 NTT units, 195k ops/s vs HEAX 117k vs GPU 45k; key-switch 65k ops/s = 105x CPU",
		Run:   runNTTOps,
	},
	{
		ID:    "software",
		Title: "Measured CPU timings of this repository vs the calibrated Xeon model",
		Paper: "(methodology check — no direct paper artifact)",
		Run:   runSoftware,
	},
}

// All returns every experiment in the order `chamsim all` runs them.
func All() []Experiment { return registry }

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func ms(sec float64) string {
	switch {
	case sec >= 1:
		return fmt.Sprintf("%.2f s", sec)
	case sec >= 1e-3:
		return fmt.Sprintf("%.2f ms", sec*1e3)
	default:
		return fmt.Sprintf("%.1f us", sec*1e6)
	}
}
func itoa(v int) string { return fmt.Sprintf("%d", v) }
func kops(v float64) string {
	return fmt.Sprintf("%.1fk", v/1e3)
}
