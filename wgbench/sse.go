package main

import (
	"bufio"
	"errors"
	"io"
	"strings"
)

// readSSE parses a Server-Sent Events stream, calling fn with each event's
// type and data (multi-line data joined by "\n") until fn returns true or
// the stream ends. An event without an "event:" field has type "message".
// Comment lines and fields other than event/data are ignored; "\r\n" line
// ends are accepted. A stream that ends inside an event drops that event.
func readSSE(r io.Reader, fn func(event, data string) (stop bool)) error {
	br := bufio.NewReader(r)
	event := ""
	var data []string
	for {
		line, err := br.ReadString('\n')
		if errors.Is(err, io.EOF) {
			return nil // any unterminated final line belongs to an incomplete event
		}
		if err != nil {
			return err
		}
		line = strings.TrimSuffix(strings.TrimSuffix(line, "\n"), "\r")
		if line == "" {
			if data != nil {
				if event == "" {
					event = "message"
				}
				if fn(event, strings.Join(data, "\n")) {
					return nil
				}
			}
			event, data = "", nil
			continue
		}
		if strings.HasPrefix(line, ":") {
			continue
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "event":
			event = value
		case "data":
			data = append(data, value)
		}
	}
}
