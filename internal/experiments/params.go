package experiments

import (
	"fmt"
	"io"

	"vrdag/internal/core"
	"vrdag/internal/datasets"
	"vrdag/internal/metrics"
)

// ParamRow is one configuration of the parameter analysis (Appendix A-F):
// quality and cost as a function of one swept hyper-parameter.
type ParamRow struct {
	Param    string // "dz", "dh", "K", "L"
	Value    int
	InDegMMD float64
	ClusMMD  float64
	AttrJSD  float64
	TrainSec float64
	GenSec   float64
}

// ParamAnalysis reconstructs the paper's parameter study on the Email
// replica: sweep the latent size d_z, hidden size d_h, mixture size K and
// encoder depth L one at a time around the default configuration, and
// report generation quality and wall time for each point. The point at
// each default shares its fit with the other runners' VRDAG on Email.
func (g *grid) ParamAnalysis() ([]ParamRow, error) {
	orig, err := g.replica(replicaKey{dataset: datasets.Email})
	if err != nil {
		return nil, err
	}
	sweeps := []struct {
		name   string
		values []int
		apply  func(*core.Config, int)
	}{
		{"dz", []int{2, 4, 8, 16}, func(c *core.Config, v int) { c.LatentDim = v }},
		{"dh", []int{4, 8, 16, 32}, func(c *core.Config, v int) { c.HiddenDim = v }},
		{"K", []int{1, 2, 4, 8}, func(c *core.Config, v int) { c.K = v }},
		{"L", []int{1, 2, 3}, func(c *core.Config, v int) { c.EncoderLayers = v }},
	}
	var rows []ParamRow
	for _, sw := range sweeps {
		for _, v := range sw.values {
			_, c, err := g.generated(replicaKey{dataset: datasets.Email},
				gen{method: vrdagMethod, mutate: func(c *core.Config) { sw.apply(c, v) }})
			if err != nil {
				return nil, fmt.Errorf("param %s=%d: %w", sw.name, v, err)
			}
			rep := metrics.CompareStructure(orig, c.synth)
			rows = append(rows, ParamRow{
				Param: sw.name, Value: v,
				InDegMMD: rep.InDegMMD, ClusMMD: rep.ClusMMD,
				AttrJSD:  metrics.AttrJSD(orig, c.synth, 32),
				TrainSec: c.fitSec, GenSec: c.genSec,
			})
		}
	}
	return rows, nil
}

// PrintParams renders the parameter-analysis rows.
func PrintParams(w io.Writer, rows []ParamRow) {
	fmt.Fprintf(w, "%-6s %6s %9s %9s %9s %10s %10s\n",
		"Param", "Value", "In-deg", "Clus", "AttrJSD", "Train(s)", "Gen(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %6d %9.4f %9.4f %9.4f %10.4f %10.4f\n",
			r.Param, r.Value, r.InDegMMD, r.ClusMMD, r.AttrJSD, r.TrainSec, r.GenSec)
	}
}
