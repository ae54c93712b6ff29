//go:build !amd64

package cpu

// avx2Usable is false off amd64: the Go bodies are the only encoding.
func avx2Usable() bool { return false }
