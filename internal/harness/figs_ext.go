package harness

import (
	"fmt"

	"hbtree/internal/core"
	"hbtree/internal/platform"
	"hbtree/internal/workload"
)

func init() {
	register("ext-update", "Extension: GPU-assisted batch updates (paper future work 1, Sec. 7)", runExtUpdate)
}

func runExtUpdate(cfg Config) ([]Table, error) {
	m, _ := platform.ByName(cfg.Machine)
	n := cfg.Sizes[len(cfg.Sizes)-1]
	t := Table{
		ID:    "ext-update",
		Title: fmt.Sprintf("GPU-assisted update resolution vs conventional async, %s tuples", fmtSize(n)),
		Note:  "the GPU resolves each update's target leaf over the I-segment replica; the CPU applies leaf groups without re-descending the tree",
		Cols:  []string{"batch", "async host (ms)", "gpu-assist host (ms)", "speedup"},
	}
	batches := []int{1 << 13, 1 << 15, 1 << 17}
	if cfg.Quick {
		batches = []int{1 << 12, 1 << 14}
	}
	pairs := workload.Dataset[uint64](workload.Uniform, n, cfg.Seed)
	for _, b := range batches {
		ops := makeOps(pairs, b, 0.2, cfg.Seed+uint64(b))
		conv, err := core.Build(pairs, core.Options{Machine: m, Variant: core.Regular, LeafFill: 0.85})
		if err != nil {
			return nil, err
		}
		cst, err := conv.Update(ops, core.AsyncParallel)
		if err != nil {
			return nil, err
		}
		conv.Close()
		gpu, err := core.Build(pairs, core.Options{Machine: m, Variant: core.Regular, LeafFill: 0.85})
		if err != nil {
			return nil, err
		}
		gst, err := gpu.UpdateGPUAssisted(ops)
		if err != nil {
			return nil, err
		}
		if err := gpu.VerifyReplica(); err != nil {
			return nil, fmt.Errorf("ext-update: %w", err)
		}
		gpu.Close()
		t.AddRow(fmtSize(b),
			fmtF(cst.HostTime.Seconds()*1e3, 2),
			fmtF(gst.HostTime.Seconds()*1e3, 2),
			fmtF(cst.HostTime.Seconds()/gst.HostTime.Seconds(), 2)+"x")
	}
	return []Table{t}, nil
}
