//go:build !race

package fxa

const raceEnabled = false
