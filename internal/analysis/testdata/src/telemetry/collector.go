// Stand-in goroutine-bound telemetry API for bindcheck: a Collector with
// Bind, the Inherit/Collect entry points, and EngineSampler — the names
// and package the analyzer keys on. Kept free of Sampler methods so the
// nilrecorder expectations in telemetry.go are untouched.
package telemetry

// Collector mimics the goroutine-bound series collector.
type Collector struct{ n int64 }

// Bind attaches the collector to the calling goroutine.
func (c *Collector) Bind() func() { return func() {} }

// Inherit captures the caller's binding; invoking the returned bind
// function attaches it to the invoking goroutine.
func Inherit() func() func() {
	return func() func() { return func() {} }
}

// Collect binds a fresh collector to the calling goroutine.
func Collect() *Collector { return &Collector{} }

// EngineSampler builds a sampler wired to the collector bound when an
// engine was created.
func EngineSampler(buckets int) *Sampler { return &Sampler{} }
