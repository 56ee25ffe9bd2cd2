//go:build !race

package valuepred

const raceEnabled = false
