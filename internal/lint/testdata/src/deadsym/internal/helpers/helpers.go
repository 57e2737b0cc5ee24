// Package helpers is imported only by tests, and says so.
//
//lint:api test helpers for the fixture
package helpers
