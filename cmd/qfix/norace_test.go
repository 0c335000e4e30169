//go:build !race

package main

// raceEnabled reports a -race build, whose allocator makes every
// allocation larger than the bytes asked for.
const raceEnabled = false
