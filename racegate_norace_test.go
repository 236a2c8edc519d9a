//go:build !race

package fedca_test

// See racegate_race_test.go.
const raceEnabled = false
