package coord

import (
	"context"
	"testing"
	"time"

	"cache8t/internal/server"
	"cache8t/internal/server/lifecycletest"
)

func TestSweepLifecycle(t *testing.T) {
	lifecycletest.Suite(t, func(parent context.Context, now time.Time) *server.Lifecycle {
		return newSweep(parent, "s-000001", SweepSpec{}, "", 0, now).Lifecycle
	})
}
