package probe

// DurationSpecs hands durationSpecs to the external send-time test.
var DurationSpecs = durationSpecs
