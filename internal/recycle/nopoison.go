//go:build !poison

package recycle

// Poison is off in a normal build; see poison.go.
const Poison = false
