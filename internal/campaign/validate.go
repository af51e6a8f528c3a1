package campaign

import (
	"fmt"

	"vulfi/internal/benchmarks"
	"vulfi/internal/obs"
	"vulfi/internal/passes"
)

// Validate normalizes the configuration in place — applying the paper's
// defaults for unset counts (100 experiments × 20 campaigns) and the vm
// backend for an unset one — and reports the first invalid field. It is
// the single gate every entry point shares: RunStudy/Prepare (and the
// root vulfi package's forwarders to them), the CLIs and the vulfid
// service all funnel their configurations through it, so a spec
// rejected in one place is rejected identically everywhere.
func (c *Config) Validate() error {
	if c.Benchmark == nil {
		return fmt.Errorf("campaign: Benchmark is required")
	}
	if c.ISA == nil {
		return fmt.Errorf("campaign: ISA is required")
	}
	if c.Category < passes.PureData || c.Category > passes.Address {
		return fmt.Errorf("campaign: unknown category %d", c.Category)
	}
	if c.Scale < benchmarks.ScaleTest || c.Scale > benchmarks.ScaleLarge {
		return fmt.Errorf("campaign: unknown scale %d", c.Scale)
	}
	if c.Experiments < 0 {
		return fmt.Errorf("campaign: Experiments must be non-negative (got %d)", c.Experiments)
	}
	if c.Campaigns < 0 {
		return fmt.Errorf("campaign: Campaigns must be non-negative (got %d)", c.Campaigns)
	}
	if c.Workers < 0 {
		return fmt.Errorf("campaign: Workers must be non-negative (got %d)", c.Workers)
	}
	if c.Inputs < 0 {
		return fmt.Errorf("campaign: Inputs must be non-negative (got %d)", c.Inputs)
	}
	switch c.Backend {
	case "", "tree", "vm":
	default:
		return fmt.Errorf("campaign: unknown backend %q (tree, vm)", c.Backend)
	}
	if c.TraceParent != "" {
		if _, _, err := obs.ParseTraceparent(c.TraceParent); err != nil {
			return fmt.Errorf("campaign: TraceParent: %v", err)
		}
	}
	if c.Experiments == 0 {
		c.Experiments = 100
	}
	if c.Campaigns == 0 {
		c.Campaigns = 20
	}
	if c.Backend == "" {
		c.Backend = "vm"
	}
	// The shard range is checked against the normalized counts: a spec
	// that says nothing about counts still shards over the defaulted
	// 100×20 schedule.
	if c.ShardStart < 0 || c.ShardEnd < 0 {
		return fmt.Errorf("campaign: shard range must be non-negative (got [%d,%d))",
			c.ShardStart, c.ShardEnd)
	}
	if c.ShardEnd == 0 && c.ShardStart > 0 {
		return fmt.Errorf("campaign: ShardStart %d without ShardEnd", c.ShardStart)
	}
	if c.ShardEnd > 0 {
		if c.ShardStart >= c.ShardEnd {
			return fmt.Errorf("campaign: empty shard range [%d,%d)", c.ShardStart, c.ShardEnd)
		}
		if total := c.Campaigns * c.Experiments; c.ShardEnd > total {
			return fmt.Errorf("campaign: ShardEnd %d exceeds the %d-experiment schedule",
				c.ShardEnd, total)
		}
	}
	return nil
}
