//go:build race

package node

// raceEnabled reports a -race build: the detector randomly drops
// sync.Pool entries, so exact allocation counts do not hold under it.
const raceEnabled = true
