package cluster

// LoadReport is armvirt-loadgen's machine-readable summary, emitted under
// -json (`make cluster-smoke` reads its errors, outcomes and unready
// counts with jq). Latency quantiles come from stats.Histogram, so
// they carry that histogram's documented semantics: log2-bucket
// estimates, at most a factor of two off the true order statistic.
type LoadReport struct {
	// Kind identifies the document ("armvirt-loadgen").
	Kind    string   `json:"kind"`
	Targets []string `json:"targets"`
	Paths   []string `json:"paths"`
	// OfferedRPS is the configured open-loop arrival rate; DurationS
	// the configured run length.
	OfferedRPS float64 `json:"offered_rps"`
	DurationS  float64 `json:"duration_s"`
	// Sent counts issued requests; OK 2xx answers; Shed 429 answers;
	// Errors everything else (transport failures, 5xx, unexpected
	// statuses). NotReadySkips counts arrivals dropped because no
	// target was ready (/readyz gating).
	Sent          int64 `json:"sent"`
	OK            int64 `json:"ok"`
	Shed          int64 `json:"shed"`
	Errors        int64 `json:"errors"`
	NotReadySkips int64 `json:"not_ready_skips"`
	// AchievedRPS is OK answers per second of run time; ShedRate the
	// shed fraction of sent requests.
	AchievedRPS float64 `json:"achieved_rps"`
	ShedRate    float64 `json:"shed_rate"`
	// Latency summarizes completed-request latency in microseconds.
	Latency LatencySummary `json:"latency_us"`
	// Outcomes is the cache-outcome mix by X-Cache response header
	// (hit, miss, shared, disk); Status the answer mix by HTTP status;
	// Forwarded counts responses that crossed the ring (X-Armvirt-Peer
	// present).
	Outcomes  map[string]int64 `json:"outcomes,omitempty"`
	Status    map[string]int64 `json:"status,omitempty"`
	Forwarded int64            `json:"forwarded"`
	// Unready counts, per target, readiness polls that found the
	// target not ready — how the drain smoke test observes the
	// /readyz flip from the balancer's point of view.
	Unready map[string]int64 `json:"unready,omitempty"`
}

// LatencySummary is the latency digest of one loadgen run.
type LatencySummary struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  int64   `json:"max"`
	N    int64   `json:"n"`
}
