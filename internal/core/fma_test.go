//go:build !amd64 || amd64.v3

package core

// On these targets the compiler may fuse x*y + z into one FMA instruction;
// TestSummaryBitsGolden skips itself there.
func init() { mayFuseMultiplyAdd = true }
