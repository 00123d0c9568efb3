//go:build !linux

package main

func peakRSSMB() float64 { return 0 }

func fsType(string) string { return "unknown" }

func cpuTimes() (total, steal float64) { return 0, 0 }
