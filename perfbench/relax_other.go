//go:build !amd64

package main

// cpuRelax is one step of a plain spin where no pause instruction is
// wired in.
func cpuRelax() {}
