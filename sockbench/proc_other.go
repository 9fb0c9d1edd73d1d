//go:build !linux

package main

import (
	"math"
	"os/exec"
)

func setParentDeathSignal(*exec.Cmd) {}

// readCPU needs /proc; elsewhere the steal share is reported as NaN.
func readCPU() cpuSample { return cpuSample{} }

// medianRSSMiB needs /proc; elsewhere server_rss_mb is reported as null.
func medianRSSMiB(_ int, stop <-chan struct{}) float64 {
	<-stop
	return math.NaN()
}
