//go:build !linux

package main

// filesystemOf names the filesystem holding dir; only Linux is probed.
func filesystemOf(string) string { return "unknown" }
