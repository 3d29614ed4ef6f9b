package fibril

import "fibril/internal/core"

// Option is a functional configuration knob for NewWith. Options are
// applied in order over a zero Config, so later options win and anything
// not set keeps the documented zero-value default. The plain Config
// struct (and New) remains fully supported; WithConfig bridges the two
// styles.
type Option func(*Config)

// NewWith creates a runtime from functional options — the long-lived-
// runtime counterpart to New:
//
//	rt := fibril.NewWith(
//		fibril.WithWorkers(8),
//		fibril.WithSink(fibril.NewMetricsSink()),
//	)
func NewWith(opts ...Option) *Runtime {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return core.NewRuntime(cfg)
}

// WithConfig starts from an explicit base Config instead of the zero
// value; options applied after it override its fields.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// WithWorkers sets the number of worker slots P. Default: GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(c *Config) { c.Workers = n }
}

// WithStrategy selects the scheduling policy. Default: Fibril, the
// paper's contribution.
func WithStrategy(s Strategy) Option {
	return func(c *Config) { c.Strategy = s }
}

// WithStackPages sets the simulated stack size in 4 KB pages. Default:
// 256 (1 MB stacks, as in the paper).
func WithStackPages(n int) Option {
	return func(c *Config) { c.StackPages = n }
}

// WithStackLimit bounds the stack pool (the Cilk Plus discipline).
// Default: unbounded, except 2400 under the CilkPlus strategy.
func WithStackLimit(n int) Option {
	return func(c *Config) { c.StackLimit = n }
}

// WithFrameBytes sets the simulated activation-frame size charged when a
// fork/call site does not specify one. Default: 192 bytes.
func WithFrameBytes(n int) Option {
	return func(c *Config) { c.FrameBytes = n }
}

// WithSeed seeds the per-worker steal RNGs. Default: a fixed constant,
// so runs are reproducible by default.
func WithSeed(seed uint64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithUnmapBatch turns on coalesced unmap for the Fibril strategy when
// n > 1: suspends post reclaim tickets flushed n at a time instead of
// madvising eagerly. Default: 0, the paper's eager per-suspend unmap.
func WithUnmapBatch(n int) Option {
	return func(c *Config) { c.UnmapBatch = n }
}

// WithMaxResidentPages sets a soft ceiling on simulated RSS in pages;
// workers over the ceiling drain deferred unmaps and strip pooled-stack
// residue before mapping fresh pages. Default: 0, no ceiling.
func WithMaxResidentPages(n int64) Option {
	return func(c *Config) { c.MaxResidentPages = n }
}

// WithSink attaches a scheduler-event sink (Recorder, ChromeSink,
// MetricsSink, or custom). Default: nil — observability off, one pointer
// test per event site.
func WithSink(s Sink) Option {
	return func(c *Config) { c.Sink = s }
}

// WithMaxInflight bounds the number of concurrently admitted Jobs on the
// serving lifecycle (Start/Submit/Close); excess submissions queue or
// shed per the admission policy. Default: 0, unlimited.
func WithMaxInflight(n int) Option {
	return func(c *Config) { c.MaxInflight = n }
}

// WithAdmission selects what Submit does with a job that does not fit:
// AdmitQueue parks it for FIFO admission as capacity frees up, AdmitShed
// rejects it immediately with ErrShed. Default: AdmitQueue.
func WithAdmission(p AdmissionPolicy) Option {
	return func(c *Config) { c.Admission = p }
}

// WithTenantQuotaPages bounds the simulated stack pages one tenant's
// admitted Jobs may reserve at once (each job reserves StackPages); use
// SubmitTenant to attribute submissions. Default: 0, unlimited.
func WithTenantQuotaPages(n int64) Option {
	return func(c *Config) { c.TenantQuotaPages = n }
}
