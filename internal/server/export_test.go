package server

import (
	"context"
	"time"
)

// NewTestJob builds a bare queued job for the lifecycle suite, which runs
// from the external test package.
func NewTestJob(parent context.Context, now time.Time) *Lifecycle {
	return newJob(parent, "j-000001", JobSpec{}, "", "", now).Lifecycle
}
