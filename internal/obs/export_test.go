package obs

// Exported for the obs_test files, which check obs output with the
// obs/obstest readers and so cannot live in package obs itself
// (obstest imports obs).
var (
	FixedTracer        = fixedTracer
	SanitizeMetricName = sanitizeMetricName
)
