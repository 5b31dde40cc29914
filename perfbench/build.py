"""Build file of the benchmark: compiles the program (src/main/scala) and the
benchmark's JVM harness (perfbench/src/main/scala) with the Scala compiler
that ships in Spark's jars, into .bench_build/perfbench/classes.

The build is skipped when the sources and the Spark jars are unchanged.

    python3 perfbench/build.py          # from the repository root
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home or not (Path(home) / "jars").is_dir():
        raise BuildError("SPARK_HOME must point at a Spark distribution with a jars/ directory")
    jars = Path(home) / "jars"
    if not list(jars.glob("scala-compiler-*.jar")):
        raise BuildError(f"no scala-compiler jar in {jars}")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    if home and (Path(home) / "bin" / "java").exists():
        return str(Path(home) / "bin" / "java")
    found = shutil.which("java")
    if not found:
        raise BuildError("no java on PATH")
    return found


def sources():
    program = sorted((ROOT / "src" / "main" / "scala").rglob("*.scala"))
    if not program:
        raise BuildError("no program sources under src/main/scala")
    harness = sorted((ROOT / "perfbench" / "src" / "main" / "scala").rglob("*.scala"))
    return program + harness


def classpath(jars):
    return os.pathsep.join([str(OUT / "classes"), str(jars / "*")])


def build():
    """Compile if needed; returns the run-time classpath."""
    jars = spark_jars()
    srcs = sources()
    key = hashlib.sha256()
    for j in sorted(jars.glob("*.jar")):
        key.update(j.name.encode())
    for s in srcs:
        key.update(str(s.relative_to(ROOT)).encode())
        key.update(s.read_bytes())
    stamp = OUT / "stamp"
    if stamp.exists() and stamp.read_text() == key.hexdigest():
        return classpath(jars)

    classes = OUT / "classes"
    shutil.rmtree(classes, ignore_errors=True)
    classes.mkdir(parents=True)
    argfile = OUT / "sources.txt"
    argfile.write_text("\n".join(str(s) for s in srcs) + "\n")
    cmd = [java(), "-Xmx2g", "-Xss8m", "-cp", str(jars / "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(classes), f"@{argfile}"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        raise BuildError("scalac failed:\n" + done.stdout[-4000:])
    stamp.write_text(key.hexdigest())
    return classpath(jars)


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"build failed: {e}")
