//go:build race

package sim

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops Puts at random and allocation budgets do not hold.
const raceEnabled = true
