package collector

// GoldenStream hands goldenStream to the external test package, which
// (unlike this one) may import internal/pager.
var GoldenStream = goldenStream
