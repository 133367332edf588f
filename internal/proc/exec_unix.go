//go:build unix

package proc

import (
	"os"
	"syscall"
)

// unixSocketpair returns a connected AF_UNIX stream pair, close-on-exec
// on the parent side (the child side is re-inherited explicitly via
// ExtraFiles, which clears the flag on the dup).
func unixSocketpair() (parent, child *os.File, err error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return nil, nil, os.NewSyscallError("socketpair", err)
	}
	syscall.CloseOnExec(fds[0])
	syscall.CloseOnExec(fds[1])
	return os.NewFile(uintptr(fds[0]), "mpf-sock-parent"), os.NewFile(uintptr(fds[1]), "mpf-sock-child"), nil
}
