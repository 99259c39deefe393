//go:build race

package protocol

func init() { raceDetector = true }
