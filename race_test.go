//go:build race

package valuepred

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool.Put drops a random share of the items it is given, so an
// allocation budget measures the detector instead of the code; the budget
// tests skip and CI runs them in a separate step without -race.
const raceEnabled = true
