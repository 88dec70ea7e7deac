package main

import (
	"fmt"
	"runtime"
	"syscall"
)

// envInfo is recorded with every output: the numbers are this box's.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Clients    int    `json:"clients"`
	// DataFS is the filesystem the durable shards write to; fsync and
	// replay latencies are that filesystem's.
	DataFS string `json:"data_fs"`
}

func currentEnv(tmpRoot string) envInfo {
	return envInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Clients:    clientCount(),
		DataFS:     fsTypeName(tmpRoot),
	}
}

func (e envInfo) String() string {
	return fmt.Sprintf("%s GOMAXPROCS=%d nproc=%d clients=%d data-fs=%s",
		e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.Clients, e.DataFS)
}

// fsTypeName names the filesystem holding dir by its statfs magic.
func fsTypeName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
