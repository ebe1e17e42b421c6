//go:build !linux

package main

// fsType is only resolved on Linux.
func fsType(string) string { return "unknown" }
