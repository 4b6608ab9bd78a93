//go:build race

package gateway

// raceEnabled says the tests run under the race detector.
const raceEnabled = true
