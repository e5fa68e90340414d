package main

import (
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

type sseEvent struct{ event, data string }

func collectSSE(t *testing.T, r io.Reader) ([]sseEvent, error) {
	t.Helper()
	var got []sseEvent
	err := readSSE(r, func(event, data string) bool {
		got = append(got, sseEvent{event, data})
		return false
	})
	return got, err
}

func TestReadSSE(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []sseEvent
	}{
		{"service stream", "event: status\ndata: {\"state\":\"queued\"}\n\nevent: status\ndata: {\"state\":\"done\"}\n\n",
			[]sseEvent{{"status", `{"state":"queued"}`}, {"status", `{"state":"done"}`}}},
		{"crlf and no space", "event:status\r\ndata:x\r\n\r\n", []sseEvent{{"status", "x"}}},
		{"default type, multi-line data", "data: a\ndata: b\n\n", []sseEvent{{"message", "a\nb"}}},
		{"comments and unknown fields", ": keep-alive\nid: 7\nretry: 10\nevent: status\ndata: y\n\n", []sseEvent{{"status", "y"}}},
		{"event without data is skipped", "event: status\n\ndata: z\n\n", []sseEvent{{"message", "z"}}},
		{"unterminated final event is dropped", "data: whole\n\ndata: partial\n", []sseEvent{{"message", "whole"}}},
		{"empty stream", "", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := collectSSE(t, iotest.OneByteReader(strings.NewReader(c.in)))
			if err != nil {
				t.Fatalf("readSSE: %v", err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("events = %q, want %q", got, c.want)
			}
		})
	}
}

func TestReadSSEStopsAndReportsErrors(t *testing.T) {
	n := 0
	err := readSSE(strings.NewReader("data: 1\n\ndata: 2\n\n"), func(string, string) bool {
		n++
		return true
	})
	if err != nil || n != 1 {
		t.Fatalf("readSSE with stop = %v after %d events, want nil after 1", err, n)
	}
	boom := errors.New("connection reset")
	got, err := collectSSE(t, io.MultiReader(strings.NewReader("data: 1\n\n"), iotest.ErrReader(boom)))
	if !errors.Is(err, boom) || len(got) != 1 {
		t.Fatalf("readSSE over a failing stream = %v with %d events, want %v with 1", err, len(got), boom)
	}
}
