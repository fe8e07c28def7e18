//go:build race

package core

// raceEnabled reports a -race build, under which sync.Pool drops a random
// share of Puts, so allocation counts of pooled paths are not stable.
const raceEnabled = true
