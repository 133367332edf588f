//go:build linux && arm64

package shm

// memfd_create postdates the frozen std syscall tables; its number is
// arch-specific.
const sysMemfdCreate = 279
