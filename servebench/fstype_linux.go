//go:build linux

package main

import (
	"fmt"
	"syscall"
)

// fsNames maps statfs magic numbers to filesystem names; fsync costs
// nothing on tmpfs, so a durable run records where its data dir lives.
var fsNames = map[uint32]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2fc12fc1: "zfs",
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown: " + err.Error()
	}
	magic := uint32(st.Type)
	if name, ok := fsNames[magic]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", magic)
}
