//go:build windows

package proc

import (
	"errors"
	"os"
)

// errNoSocketpair gates the exec-group harness off Windows: the
// fd-inheritance handshake needs an AF_UNIX socketpair, which the
// frozen syscall package does not expose there. The goroutine Group
// remains the process abstraction on Windows.
var errNoSocketpair = errors.New("proc: exec groups unsupported on windows")

func unixSocketpair() (parent, child *os.File, err error) {
	return nil, nil, errNoSocketpair
}
