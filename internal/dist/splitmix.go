package dist

// Splitmix64 is the standard SplitMix64 mixer: full-period and
// avalanche-complete, so nearby inputs land far apart. The simulator uses
// it for line placement and its line-table hash, and the campaign, cell
// and lifetime packages to derive well-spread seeds for independent
// random streams.
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
