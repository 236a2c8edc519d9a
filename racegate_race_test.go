//go:build race

package fedca_test

// raceEnabled gates the round allocation guard: under the race detector
// sync.Pool deliberately drops items, so pooled scratch re-allocates and the
// counts measure the race runtime.
const raceEnabled = true
