package server_test

import (
	"testing"

	"cache8t/internal/server"
	"cache8t/internal/server/lifecycletest"
)

func TestJobLifecycle(t *testing.T) { lifecycletest.Suite(t, server.NewTestJob) }
