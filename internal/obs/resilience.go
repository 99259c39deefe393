package obs

// Fleet-resilience metric canon. Three binaries speak these names —
// the gateway produces them, maxtop renders them, and maxchaos
// reports over them — so the names, label keys and help strings live
// here once instead of drifting apart in three string literals.
const (
	// MetricEjections counts temporary backend demotions by cause; the
	// one cause is reason="latency" (EWMA outlier ejection). A breaker
	// opening is gw_membership_changes_total{change="eject"}.
	MetricEjections = "gw_ejections_total"
	// MetricHintMisses counts hinted sessions whose shape matched no
	// advertised backend pool, by shape key.
	MetricHintMisses = "gw_hint_misses_total"
)

// Help strings for the resilience families, exported so every
// producer registers identical metadata.
const (
	HelpEjections  = "temporary backend ejections by reason (latency)"
	HelpHintMisses = "hinted sessions whose shape matched no advertised backend"
)
