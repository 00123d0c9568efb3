package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
)

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// fsType names the filesystem holding dir, so fsync and latency figures
// read as this machine's, not a device's.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x01021997: "9p", 0x6a656a63: "virtiofs", 0x65735546: "fuse",
		0x6969: "nfs", 0x2fc12fc1: "zfs", 0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// cpuTimes reads the machine-wide CPU time counters of /proc/stat: the
// total and the part stolen by the hypervisor for other guests.
func cpuTimes() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user and nice.
	f := bytes.Fields(line)
	if len(f) < 9 {
		return 0, 0
	}
	for i, x := range f[1:9] {
		v, _ := strconv.ParseFloat(string(x), 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
