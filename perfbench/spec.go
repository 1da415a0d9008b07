package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"disqo/internal/datagen"
)

// specJSON is the benchmark's record of its workloads: the parameters
// the runs use, and the notes and measurements that explain them. The
// benchmark reads its parameters from here, so the record cannot drift
// from what runs.
//
//go:embed spec.json
var specJSON []byte

type shapeWeight struct {
	Shape string `json:"shape"`
	Count int    `json:"count"`
}

// common are the settings every workload has.
type common struct {
	Clients int `json:"clients"`
	// Setups is how many times a run sets the workload up; setup_s is
	// their median and the last one is measured.
	Setups int `json:"setups"`
	// WarmupOps run per client before the timed window, from a stream
	// seeded apart from the measured one.
	WarmupOps int `json:"warmup_ops"`
	// TraceOps is the length of the traced replay: the first ops of the
	// measured stream, clients interleaved round robin.
	TraceOps int `json:"trace_ops"`
	// CheckOps is how many completed reads per client the correctness
	// check re-runs on the reference path.
	CheckOps int `json:"check_ops"`
}

type analyticConfig struct {
	common
	RSTSF   float64       `json:"rst_sf"`
	TPCHSF  float64       `json:"tpch_sf"`
	Weights []shapeWeight `json:"weights"`
}

type churnConfig struct {
	common
	RSTSF           float64  `json:"rst_sf"`
	HotSet          int      `json:"hot_set"`
	HotShapes       []string `json:"hot_shapes"`
	SliceRows       int      `json:"slice_rows"`
	ZipfS           float64  `json:"zipf_s"`
	WriteOpShare    float64  `json:"write_op_share"`
	PairShare       float64  `json:"pair_share"`
	CheckpointEvery int      `json:"checkpoint_every"`
}

func (c churnConfig) rows() int { return int(c.RSTSF * datagen.RSTRowsPerSF) }

type servedConfig struct {
	common
	RSTSF   float64       `json:"rst_sf"`
	Weights []shapeWeight `json:"weights"`
}

type benchSpec struct {
	HeldOutSeed uint64         `json:"held_out_seed"`
	Analytic    analyticConfig `json:"analytic"`
	Churn       churnConfig    `json:"churn"`
	Served      servedConfig   `json:"served"`
}

func loadSpec() (benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return s, fmt.Errorf("spec.json: %w", err)
	}
	return s, nil
}
